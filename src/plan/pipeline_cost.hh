/**
 * @file
 * Analytical Mobius-pipeline schedule evaluator.
 *
 * Implements the constraint system of §3.2 (Eq. 4-11) as a forward
 * recurrence: given a partition it computes every stage's
 * forward/backward start times under the memory constraints (Eq. 4-5),
 * prefetch limits (Eq. 6), pipeline-order constraints (Eq. 8),
 * weight-availability constraints (Eq. 9), per-stage microbatch
 * serialisation (Eq. 10) and the forward/backward barrier (Eq. 11).
 * The returned step time is the objective of the paper's MIP (Eq. 3).
 *
 * Communication uses the *average* GPU bandwidth B, exactly like the
 * MIP's constant B in Table 2 — contention is deliberately not
 * modelled here (it is handled by cross mapping and observed in the
 * event-driven executor).
 *
 * The evaluator is table-driven: its constructor sums every stage
 * range's constants once (weights, gradients, Eq. 4 footprints,
 * compute times), in the same layer order as the CostModel range
 * aggregates, so a lookup is bitwise equal to re-summing. A search
 * scores candidates through score(), which runs the same recurrence
 * as evaluate() but keeps only a rolling microbatch row in a
 * caller-owned Workspace and fills no per-stage detail.
 */

#ifndef MOBIUS_PLAN_PIPELINE_COST_HH
#define MOBIUS_PLAN_PIPELINE_COST_HH

#include <cstddef>
#include <string>
#include <vector>

#include "plan/partition.hh"

namespace mobius
{

/** Inputs the evaluator needs beyond the cost model. */
struct PipelineEnv
{
    int numGpus = 4;              //!< N
    Bytes gpuMemBytes = 0;        //!< G, per-GPU capacity
    double avgBandwidth = 13.1e9; //!< B, average GPU comm bandwidth
    /**
     * Keep the last round of forward stages resident for the
     * backward pass when memory allows (avoids a reload bubble at
     * the forward/backward boundary).
     */
    bool keepResidentTail = true;
};

/** Per-stage schedule detail of one evaluation. */
struct StageSchedule
{
    double fwdStart = 0.0;  //!< t^f_{j,1}
    double fwdEnd = 0.0;    //!< t^f_{j,M} + T^f_j
    double bwdStart = 0.0;  //!< t^b_{j,1}
    double bwdEnd = 0.0;    //!< t^b_{j,M} + T^b_j
    double fwdReady = 0.0;  //!< weights fully on GPU (forward)
    double bwdReady = 0.0;  //!< weights fully on GPU (backward)
    Bytes prefetchedFwd = 0; //!< P^f_j actually prefetched
    Bytes prefetchedBwd = 0; //!< P^b_j actually prefetched
    bool residentForBwd = false; //!< stage never left the GPU
};

/** Result of evaluating one partition. */
struct PipelineEstimate
{
    bool feasible = false;        //!< schedule fits in GPU memory
    std::string infeasibleReason; //!< human-readable cause if not
    double stepTime = 0.0;        //!< makespan (seconds)
    std::vector<StageSchedule> stages; //!< per-stage detail

    /** Communication the schedule implies (parameters both ways,
     * activations, gradients) in bytes. */
    Bytes commBytes = 0;
};

/** Evaluates partitions against one (model, GPU, config, server). */
class PipelineCostEvaluator
{
  public:
    /**
     * Constants of the stage [lo, hi), summed once; each equals the
     * CostModel aggregate named beside it, bit for bit.
     */
    struct StageCosts
    {
        Bytes w = 0;    //!< rangeParamBytes: FP16 weights
        Bytes grad = 0; //!< rangeGradBytes: FP16 gradients
        Bytes memF = 0; //!< stageMemFwd: S^f_j (Eq. 4)
        Bytes memB = 0; //!< stageMemBwd: S^b_j (Eq. 4)
        double tf = 0.0; //!< rangeFwdTime: T^f_j, one microbatch
        double tb = 0.0; //!< rangeBwdTime: T^b_j, one microbatch
    };

    /**
     * Scratch for score(): a rolling microbatch row and per-stage
     * times, grown on demand and reused, so a warm score() allocates
     * nothing. One workspace per search; it is not safe to share
     * between threads.
     */
    class Workspace
    {
        friend class PipelineCostEvaluator;

        /** What the recurrence keeps of one stage. */
        struct Stage
        {
            const StageCosts *costs = nullptr;
            double actTime = 0.0;  //!< output activation / B
            double fwdStart = 0.0; //!< t^f_{j,1}
            double fwdEnd = 0.0;   //!< t^f_{j,M} + T^f_j
            double bwdStart = 0.0; //!< t^b_{j,1}
            double bwdEnd = 0.0;   //!< t^b_{j,M} + T^b_j
        };

        std::vector<Stage> stages_;
        std::vector<double> row_; //!< one stage's start times, by m
    };

    /** Build the stage-constant table of @p cost (O(L^2) entries). */
    PipelineCostEvaluator(const CostModel &cost, PipelineEnv env);

    /** Evaluate one partition (Eq. 3-11). */
    PipelineEstimate evaluate(const Partition &partition) const;

    /**
     * Step time of @p partition, bitwise equal to
     * evaluate(partition).stepTime, or +inf when it does not fit in
     * GPU memory. Allocation-free once @p ws has grown to the
     * partition's stage and microbatch counts.
     */
    double score(const Partition &partition, Workspace &ws) const;

    /** Table entry of the stage [lo, hi), 0 <= lo < hi <= L. */
    const StageCosts &
    stageCosts(int lo, int hi) const
    {
        return table_[static_cast<std::size_t>(lo) *
                          static_cast<std::size_t>(numLayers_) +
                      static_cast<std::size_t>(hi - 1)];
    }

    const PipelineEnv &env() const { return env_; }
    const CostModel &cost() const { return *cost_; }

  private:
    /**
     * The Eq. 4-11 recurrence shared by evaluate() and score():
     * @return the step time, +inf if infeasible. When @p detail is
     * non-null it also receives feasibility, per-stage schedules and
     * the implied traffic.
     */
    double schedule(const Partition &partition, Workspace &ws,
                    PipelineEstimate *detail) const;

    const CostModel *cost_;
    PipelineEnv env_;
    int numLayers_ = 0;
    std::vector<StageCosts> table_; //!< [lo * L + hi - 1]
    std::vector<double> actTime_;   //!< actBytes(i) / B
};

} // namespace mobius

#endif // MOBIUS_PLAN_PIPELINE_COST_HH
