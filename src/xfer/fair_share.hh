/**
 * @file
 * Max-min fair bandwidth allocation for fluid flows.
 *
 * Each flow traverses a set of capacity pools (link directions). When
 * several flows share a pool they split its capacity max-min fairly:
 * the most constrained pool is found, its flows are frozen at an equal
 * share, the residual capacity is redistributed, and the process
 * repeats. This reproduces the root-complex contention behaviour the
 * paper profiles in §2.2/§4.2 (e.g. two GPUs under one root complex
 * each observing half the root complex's bandwidth).
 *
 * **Component decomposition.** The solver first splits the flow–pool
 * bipartite graph into connected components (flows connected when
 * they share a pool, directly or transitively) and waterfills each
 * component independently. Max-min fairness is separable this way:
 * the waterfilling rounds of one component never read or write
 * another component's pools, so a component's rates depend *only* on
 * its own flows, caps, and pool capacities — bit-for-bit, not just
 * mathematically. That invariance is what the transfer engine's
 * incremental recomputation relies on: when the active-flow set
 * changes, re-solving just the affected component reproduces exactly
 * the rates a full recomputation would assign (see
 * transfer_engine.hh and DESIGN.md "Simulator performance model").
 *
 * Components are processed in order of their smallest flow index and
 * flows keep their caller-given order inside a component, so results
 * are deterministic and independent of how the caller discovered the
 * component.
 *
 * **Reusable workspace.** FairShareSolver is the only waterfill. It
 * keeps its per-pool and per-flow scratch between solves and reads
 * each flow's pool list in place (addFlow() stores a pointer, not a
 * copy), so a warm solve allocates nothing and costs O(flows + the
 * pools they reference), not O(all pools). The invariant that makes
 * reuse safe: at the end of every solve, each pool the solve touched
 * has its flow list and "seen" mark cleared, and a pool's residual
 * is re-seeded from its capacity the first time a later solve
 * touches it; untouched pools were never written. A reused solver
 * therefore starts every solve from the same state a fresh one
 * does, and runs the same arithmetic in the same order, so its rates
 * are bit-identical to maxMinFairRates(), which solves on a fresh
 * solver.
 */

#ifndef MOBIUS_XFER_FAIR_SHARE_HH
#define MOBIUS_XFER_FAIR_SHARE_HH

#include <cstdint>
#include <vector>

namespace mobius
{

/** A flow, for the purposes of rate allocation. */
struct FairShareFlow
{
    std::vector<int> pools;  //!< capacity pool ids traversed
    double rateCap = 0.0;    //!< optional per-flow cap (0 = none)
};

/** Telemetry from one max-min fair allocation. */
struct FairShareStats
{
    int rounds = 0;          //!< freeze iterations executed
    int cappedFlows = 0;     //!< flows frozen by their own rate cap
    int saturatedPools = 0;  //!< pools driven to saturation
    int components = 0;      //!< connected components waterfilled
};

/**
 * Max-min fair waterfill with a persistent workspace.
 *
 * Usage per solve: one addFlow() per flow in caller order, then
 * solve(), which consumes the added flows. The pool lists passed to
 * addFlow() must stay alive and unchanged until solve() returns.
 */
class FairShareSolver
{
  public:
    /**
     * Append a flow: the pool ids it traverses (read in place, not
     * copied) and its rate cap (0 = none).
     */
    void
    addFlow(const std::vector<int> &pools, double rate_cap)
    {
        flows_.push_back({&pools, rate_cap});
    }

    /**
     * Waterfill the flows added since the last solve, then forget
     * them (the workspace keeps its capacity).
     *
     * @param pool_capacity  capacity of each pool id referenced by
     *                       the flows; indexed by pool id (bytes/s)
     * @param stats          optional telemetry out-param (reset)
     * @return per-flow rate in bytes/second, in addFlow() order;
     *         valid until the next solve()
     */
    const std::vector<double> &
    solve(const std::vector<double> &pool_capacity,
          FairShareStats *stats);

  private:
    struct FlowRef
    {
        const std::vector<int> *pools;
        double rateCap;
    };

    std::vector<FlowRef> flows_;
    std::vector<double> rate_;
    /** Per-flow scratch, reset for the added flows on every solve. */
    std::vector<char> frozen_;
    std::vector<char> inComponent_;
    /** Per-pool scratch, indexed by pool id; see the file comment
     *  for the touched-pool reset invariant. */
    std::vector<std::vector<std::uint32_t>> poolFlows_;
    std::vector<double> residual_;
    std::vector<int> users_;
    std::vector<char> poolSeen_;
    std::vector<int> touchedPools_;
    std::vector<std::uint32_t> compFlows_;
    std::vector<int> compPools_;
};

/**
 * Compute max-min fair rates on a fresh FairShareSolver.
 *
 * @param flows          the active flows
 * @param pool_capacity  capacity of each pool id referenced by flows;
 *                       indexed by pool id (bytes/second)
 * @param stats          optional telemetry out-param (reset on entry)
 * @return per-flow rate in bytes/second, same order as @p flows
 */
std::vector<double>
maxMinFairRates(const std::vector<FairShareFlow> &flows,
                const std::vector<double> &pool_capacity,
                FairShareStats *stats = nullptr);

} // namespace mobius

#endif // MOBIUS_XFER_FAIR_SHARE_HH
