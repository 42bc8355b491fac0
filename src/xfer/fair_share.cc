#include "xfer/fair_share.hh"

#include <algorithm>
#include <limits>

#include "base/logging.hh"
#include "obs/prof.hh"

namespace mobius
{

std::vector<double>
maxMinFairRates(const std::vector<FairShareFlow> &flows,
                const std::vector<double> &pool_capacity,
                FairShareStats *stats)
{
    FairShareSolver solver;
    for (const FairShareFlow &f : flows)
        solver.addFlow(f.pools, f.rateCap);
    return solver.solve(pool_capacity, stats);
}

const std::vector<double> &
FairShareSolver::solve(const std::vector<double> &pool_capacity,
                       FairShareStats *stats)
{
    MOBIUS_PROF_ZONE("xfer.fair_share");
    const std::size_t nf = flows_.size();
    const std::size_t np = pool_capacity.size();
    rate_.assign(nf, 0.0);
    if (stats)
        *stats = {};
    if (nf == 0)
        return rate_;

    // A flow with no pools (e.g. a pure-DRAM move) is only bounded by
    // its own cap; treat "no cap" as effectively infinite.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kEps = 1e-6;

    // Per-pool scratch only grows; pools past np are never touched.
    if (poolFlows_.size() < np) {
        poolFlows_.resize(np);
        residual_.resize(np);
        users_.resize(np);
        poolSeen_.resize(np, 0);
    }

    // Pool -> flows adjacency over the pools these flows reference,
    // built once; drives both the component search and the
    // per-round bottleneck scan. A pool's residual is seeded from its
    // capacity when the solve first touches it.
    touchedPools_.clear();
    for (std::size_t f = 0; f < nf; ++f) {
        for (int pool : *flows_[f].pools) {
            std::size_t p = static_cast<std::size_t>(pool);
            if (poolFlows_[p].empty()) {
                residual_[p] = pool_capacity[p];
                touchedPools_.push_back(pool);
            }
            poolFlows_[p].push_back(static_cast<std::uint32_t>(f));
        }
    }
    frozen_.assign(nf, 0);
    inComponent_.assign(nf, 0);

    // Components in order of their smallest flow index; flows keep
    // ascending (caller) order inside each component, so the
    // waterfilling arithmetic is invariant to everything outside the
    // component (the incremental-recompute contract, see header).
    for (std::size_t seed = 0; seed < nf; ++seed) {
        if (inComponent_[seed])
            continue;
        compFlows_.clear();
        compPools_.clear();
        compFlows_.push_back(static_cast<std::uint32_t>(seed));
        inComponent_[seed] = 1;
        for (std::size_t i = 0; i < compFlows_.size(); ++i) {
            for (int pool : *flows_[compFlows_[i]].pools) {
                std::size_t p = static_cast<std::size_t>(pool);
                if (poolSeen_[p])
                    continue;
                poolSeen_[p] = 1;
                compPools_.push_back(pool);
                for (std::uint32_t g : poolFlows_[p]) {
                    if (!inComponent_[g]) {
                        inComponent_[g] = 1;
                        compFlows_.push_back(g);
                    }
                }
            }
        }
        std::sort(compFlows_.begin(), compFlows_.end());
        std::sort(compPools_.begin(), compPools_.end());
        if (stats)
            ++stats->components;

        // Waterfill this component: find the smallest achievable
        // equal increment (pool residual / unfrozen users, or a
        // flow's distance to its own cap), raise every unfrozen flow
        // by it, freeze whoever hit a limit, repeat.
        for (int pool : compPools_) {
            users_[static_cast<std::size_t>(pool)] = static_cast<int>(
                poolFlows_[static_cast<std::size_t>(pool)].size());
        }
        std::size_t remaining = compFlows_.size();
        while (remaining > 0) {
            if (stats)
                ++stats->rounds;
            double best = kInf;
            for (int pool : compPools_) {
                std::size_t p = static_cast<std::size_t>(pool);
                if (users_[p] > 0)
                    best = std::min(best, residual_[p] / users_[p]);
            }
            for (std::uint32_t f : compFlows_) {
                if (!frozen_[f] && flows_[f].rateCap > 0.0)
                    best = std::min(best,
                                    flows_[f].rateCap - rate_[f]);
            }

            if (best == kInf) {
                // Every unfrozen flow is unconstrained; that can
                // only happen for pool-less, cap-less flows, which
                // make no physical sense here.
                panic("max-min fairness: unconstrained flow");
            }
            if (best < 0)
                best = 0;

            for (std::uint32_t f : compFlows_) {
                if (frozen_[f])
                    continue;
                rate_[f] += best;
                for (int pool : *flows_[f].pools)
                    residual_[static_cast<std::size_t>(pool)] -= best;
            }

            for (std::uint32_t f : compFlows_) {
                if (frozen_[f])
                    continue;
                const FlowRef &fl = flows_[f];
                bool hit = false;
                bool byCap = false;
                if (fl.rateCap > 0.0 &&
                    rate_[f] >= fl.rateCap - kEps) {
                    hit = true;
                    byCap = true;
                }
                for (int pool : *fl.pools) {
                    std::size_t p = static_cast<std::size_t>(pool);
                    if (residual_[p] <= kEps * pool_capacity[p]) {
                        hit = true;
                        break;
                    }
                }
                if (hit) {
                    frozen_[f] = 1;
                    --remaining;
                    for (int pool : *fl.pools)
                        --users_[static_cast<std::size_t>(pool)];
                    if (stats && byCap)
                        ++stats->cappedFlows;
                }
            }
        }
    }

    // Untouched pools keep their full capacity and cannot be
    // saturated, so counting over the touched ones is exact. Then
    // restore the touched-pool invariant for the next solve.
    for (int pool : touchedPools_) {
        std::size_t p = static_cast<std::size_t>(pool);
        if (stats && pool_capacity[p] > 0.0 &&
            residual_[p] <= kEps * pool_capacity[p])
            ++stats->saturatedPools;
        poolFlows_[p].clear();
        poolSeen_[p] = 0;
    }
    flows_.clear();
    return rate_;
}

} // namespace mobius
