#include "plan/mapping.hh"

#include <algorithm>
#include <chrono>
#include <limits>
#include <numeric>

#include "base/logging.hh"

namespace mobius
{

namespace
{

/** shared(g1, g2) table: common root-complex group size or 0. */
std::vector<std::vector<int>>
sharedTable(const Topology &topo)
{
    int n = topo.numGpus();
    std::vector<std::vector<int>> shared(
        static_cast<std::size_t>(n),
        std::vector<int>(static_cast<std::size_t>(n), 0));
    for (int a = 0; a < n; ++a) {
        for (int b = 0; b < n; ++b)
            shared[a][b] = topo.sharedRootComplexDegree(a, b);
    }
    return shared;
}

double
degree(const std::vector<std::vector<int>> &shared,
       const std::vector<int> &order, int num_stages)
{
    const int n = static_cast<int>(order.size());
    double total = 0.0;
    for (int i = 0; i < num_stages; ++i) {
        int gi = order[i % n];
        for (int j = i + 1; j < num_stages; ++j) {
            int gj = order[j % n];
            int s = shared[gi][gj];
            if (s > 0)
                total += static_cast<double>(s) / (j - i);
        }
    }
    return total;
}

/**
 * Depth-first search over one GPU order per class of orders that
 * Eq. 13 cannot tell apart (§3.3 cross mapping).
 *
 * degree() reads an order only through shared(g_i, g_j), the group
 * size when two GPUs share a root complex and 0 otherwise. Two
 * orders therefore score bit-identically when they differ by
 * swapping GPUs inside one root complex, or by swapping the roles of
 * two root complexes of the same size. Each class of such orders is
 * visited once, as its lexicographically smallest member:
 *  - each root complex places its GPUs in increasing index order;
 *  - a root complex places its first GPU only after every root
 *    complex of the same size with a smaller first GPU has
 *    (restricted growth).
 * Candidates are tried in increasing GPU index, so the kept orders
 * come out in lexicographic order, the order of the exhaustive
 * sweep. Every dropped order ties an earlier kept one, which it
 * could never beat under the `d < best - 1e-12` rule, so the chosen
 * order and its score equal those of the exhaustive search.
 */
struct ClassSearch
{
    ClassSearch(const Topology &topo, int num_stages)
        : shared(sharedTable(topo)), numStages(num_stages),
          order(static_cast<std::size_t>(topo.numGpus()))
    {
        // Groups are numbered in order of their first GPU.
        std::vector<int> rcs;
        for (int g = 0; g < topo.numGpus(); ++g) {
            const int rc = topo.rootComplexOf(g);
            const int k = static_cast<int>(
                std::find(rcs.begin(), rcs.end(), rc) - rcs.begin());
            if (k == static_cast<int>(rcs.size())) {
                rcs.push_back(rc);
                members.emplace_back();
            }
            groupOf.push_back(k);
            members[k].push_back(g);
        }
        opener.assign(members.size(), -1);
        for (std::size_t k = 0; k < members.size(); ++k) {
            for (std::size_t p = 0; p < k; ++p) {
                if (members[p].size() == members[k].size())
                    opener[k] = static_cast<int>(p);
            }
        }
        placed.assign(members.size(), 0);
    }

    /** Fill positions @p pos.. of the order and score each leaf. */
    void
    extend(int pos)
    {
        const int n = static_cast<int>(order.size());
        if (pos == n) {
            ++result.evaluated;
            const double d = degree(shared, order, numStages);
            if (d < best - 1e-12) {
                best = d;
                result.mapping.gpuOrder = order;
                result.mapping.contention = d;
            }
            return;
        }
        for (int g = 0; g < n; ++g) {
            const int k = groupOf[g];
            const auto &gpus = members[k];
            if (placed[k] == static_cast<int>(gpus.size()) ||
                gpus[placed[k]] != g)
                continue;
            if (placed[k] == 0 && opener[k] >= 0 &&
                placed[opener[k]] == 0)
                continue;
            order[pos] = g;
            ++placed[k];
            extend(pos + 1);
            --placed[k];
        }
    }

    const std::vector<std::vector<int>> shared;
    const int numStages;
    std::vector<int> order;   //!< order under construction
    std::vector<int> groupOf; //!< GPU -> group
    std::vector<std::vector<int>> members; //!< group -> GPUs, ascending
    std::vector<int> opener;  //!< previous same-size group, or -1
    std::vector<int> placed;  //!< group -> GPUs placed so far
    double best = std::numeric_limits<double>::infinity();
    MappingResult result;
};

} // namespace

double
contentionDegree(const Topology &topo,
                 const std::vector<int> &gpu_order, int num_stages)
{
    if (gpu_order.empty())
        panic("contentionDegree: empty GPU order");
    return degree(sharedTable(topo), gpu_order, num_stages);
}

Mapping
sequentialMapping(const Topology &topo, int num_stages)
{
    Mapping m;
    m.gpuOrder.resize(static_cast<std::size_t>(topo.numGpus()));
    std::iota(m.gpuOrder.begin(), m.gpuOrder.end(), 0);
    m.contention = contentionDegree(topo, m.gpuOrder, num_stages);
    return m;
}

MappingResult
crossMapping(const Topology &topo, int num_stages)
{
    using clock = std::chrono::steady_clock;
    auto t0 = clock::now();

    ClassSearch search(topo, num_stages);
    search.extend(0);

    MappingResult result = std::move(search.result);
    result.searchSeconds =
        std::chrono::duration<double>(clock::now() - t0).count();
    return result;
}

} // namespace mobius
