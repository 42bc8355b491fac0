#include "oracles/mapping_reference.hh"

#include <algorithm>
#include <chrono>
#include <limits>
#include <numeric>

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

} // namespace

MappingResult
crossMappingReference(const Topology &topo, int num_stages)
{
    using clock = std::chrono::steady_clock;
    auto t0 = clock::now();

    auto shared = sharedTable(topo);
    std::vector<int> order(static_cast<std::size_t>(topo.numGpus()));
    std::iota(order.begin(), order.end(), 0);

    MappingResult result;
    double best = std::numeric_limits<double>::infinity();
    // Permutations are generated in lexicographic order, so ties
    // resolve to the lexicographically smallest order: deterministic.
    do {
        ++result.evaluated;
        double d = degree(shared, order, num_stages);
        if (d < best - 1e-12) {
            best = d;
            result.mapping.gpuOrder = order;
        }
    } while (std::next_permutation(order.begin(), order.end()));

    result.mapping.contention = best;
    result.searchSeconds =
        std::chrono::duration<double>(clock::now() - t0).count();
    return result;
}

} // namespace mobius
