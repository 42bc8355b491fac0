/**
 * @file
 * High-level fine-tuning API — the library's front door.
 *
 * Typical use:
 * @code
 *     Server server = makeCommodityServer({2, 2});
 *     Workload work(gpt15b(), server);
 *     MobiusPlan plan = planMobius(server, work.cost());
 *     StepStats stats =
 *         runMobiusStepEx(server, work.cost(), plan).stats;
 * @endcode
 *
 * planMobius() runs the full §3 flow: profile with layer similarity,
 * solve the MIP partition, search the cross mapping; its timing
 * fields are what Fig. 12 reports. runMobiusStepEx(),
 * runZeroStepEx(), runTensorParallelStep() and runPipelineStep()
 * execute one training step of Mobius or a baseline on the
 * event-driven simulator: each takes StepRunOptions and returns a
 * StepRunResult (the measurements behind Figs. 2 and 5-16 plus the
 * trace digest). runStep() is the executor dispatch they share, for
 * callers that own their RunContext.
 */

#ifndef MOBIUS_RUNTIME_API_HH
#define MOBIUS_RUNTIME_API_HH

#include <memory>

#include "hw/server.hh"
#include "plan/mapping.hh"
#include "plan/partition_algos.hh"
#include "profile/profiler.hh"
#include "runtime/mobius_executor.hh"
#include "runtime/pipeline_executor.hh"
#include "runtime/tp_executor.hh"
#include "runtime/zero_executor.hh"

namespace mobius
{

/**
 * A fine-tuning workload: owns the model description and the cost
 * model bound to a server's GPU type.
 */
class Workload
{
  public:
    /**
     * @param cfg               model configuration (Table 3)
     * @param server            target server (GPU type, count)
     * @param microbatch_size   -1 = the config's Table 3 default
     * @param num_microbatches  -1 = one per GPU (M = N, §3.1)
     *
     * fatal() when either count is neither -1 nor positive.
     */
    Workload(const GptConfig &cfg, const Server &server,
             int microbatch_size = -1, int num_microbatches = -1);

    /** The built model description. */
    const ModelDesc &model() const { return *model_; }
    /** The per-layer cost model. */
    const CostModel &cost() const { return *cost_; }
    /** The resolved training configuration. */
    const TrainConfig &train() const { return train_; }

  private:
    std::unique_ptr<ModelDesc> model_;
    TrainConfig train_;
    std::unique_ptr<CostModel> cost_;
};

/** Partition algorithm selector (§4.3 ablation). */
enum class PartitionAlgo
{
    Mip,       //!< scalable heuristic search (default)
    MinStage,  //!< one transformer block per stage
    MaxStage,  //!< as many layers per stage as memory allows
};

/** Stage mapping selector (§4.4 ablation). */
enum class MappingAlgo { Cross, Sequential };

/** Planning knobs. */
struct PlanOptions
{
    PartitionAlgo partition = PartitionAlgo::Mip;
    MappingAlgo mapping = MappingAlgo::Cross;
    /** Optional registry for the plan.partition.evaluated count of
     * the partition algorithm and the plan.mapping.evaluated count
     * of cross mapping; null or disabled = no recording. */
    MetricsRegistry *metrics = nullptr;
};

/** Output of the planning phase (§3.2/§3.3 + Fig. 12 overheads). */
struct MobiusPlan
{
    Partition partition;
    Mapping mapping;
    PipelineEstimate estimate;       //!< analytic schedule estimate
    double profilingSeconds = 0.0;   //!< Fig. 12 "MIP profiling"
    double solveSeconds = 0.0;       //!< Fig. 12 "MIP solving"
    double mappingSeconds = 0.0;     //!< Fig. 12 "cross mapping"
    int profiledLayers = 0;
    int stageCount() const
    {
        return static_cast<int>(partition.size());
    }
};

/** Run the full planning flow for @p cost on @p server. */
MobiusPlan planMobius(const Server &server, const CostModel &cost,
                      const PlanOptions &opts = {});

/**
 * Everything a step run can be configured with, in one struct: the
 * run-level RunOptions (CPU optimizer, metrics, faults, what-if
 * perturbation) plus the per-system executor tunables; every field
 * defaults to a clean, unrecorded run.
 */
struct StepRunOptions : RunOptions
{
    MobiusExecutorConfig mobius; //!< used by runMobiusStepEx only
    ZeroExecutorConfig zero;     //!< used by runZeroStepEx only
    /**
     * Optional span-retention sink. When non-null, the run's trace
     * is moved here wholesale (arenas and all, replacing previous
     * contents) after the digest fields are computed — the cheap
     * hook fleet attribution uses to keep step spans alive past the
     * run without copying them. Null = the trace dies with the run.
     */
    TraceRecorder *traceOut = nullptr;
};

/** A step's measurements plus its trace digest. */
struct StepRunResult
{
    StepStats stats;
    std::uint64_t spanCount = 0; //!< spans the run recorded
    /** spanFingerprint() of the run's trace — the bit-identity
     *  token fleet determinism gates compare (cache hit vs fresh
     *  solve, any --threads width). */
    std::uint64_t spanHash = 0;
};

/** The training systems a step can run: Mobius and its baselines. */
enum class StepSystem
{
    Mobius,         //!< Mobius pipeline over heterogeneous memory
    Zero,           //!< DeepSpeed ZeRO-3 + heterogeneous memory
    GPipe,          //!< all-in-GPU pipeline, GPipe schedule
    OneFOneB,       //!< all-in-GPU pipeline, DeepSpeed 1F1B schedule
    TensorParallel, //!< Megatron-style tensor parallelism
};

/**
 * Build @p system's executor on the caller-owned @p ctx, run one
 * step and return its measurements; the context (queue, trace,
 * engines) stays alive for the caller to inspect. The one place an
 * executor is chosen. Mobius executes @p plan (must be non-null)
 * with @p mobius; ZeRO runs with @p zero; the pipeline baselines
 * use the compute-balanced partition on a sequential mapping.
 */
StepStats runStep(RunContext &ctx, const CostModel &cost,
                  StepSystem system, const MobiusPlan *plan,
                  const MobiusExecutorConfig &mobius = {},
                  const ZeroExecutorConfig &zero = {});

/**
 * Execute one Mobius step (event-driven) and return its measurements
 * and trace digest. The only Mobius step entry point.
 */
StepRunResult runMobiusStepEx(const Server &server,
                              const CostModel &cost,
                              const MobiusPlan &plan,
                              const StepRunOptions &opts = {});

/**
 * Execute one DeepSpeed-style (ZeRO-3 + hetero memory) step and
 * return its measurements and trace digest. The only ZeRO step
 * entry point.
 */
StepRunResult runZeroStepEx(const Server &server,
                            const CostModel &cost,
                            const StepRunOptions &opts = {});

/**
 * Execute one Megatron-style tensor-parallel step (the related-work
 * comparator, §5). Throws FatalError when the per-GPU weight shard
 * does not fit.
 */
StepRunResult runTensorParallelStep(const Server &server,
                                    const CostModel &cost,
                                    const StepRunOptions &opts = {});

/**
 * Execute one all-in-GPU-memory pipeline step (GPipe or DeepSpeed
 * pipeline mode). Throws FatalError when the model does not fit —
 * the Fig. 5 OOM entries.
 */
StepRunResult runPipelineStep(const Server &server,
                              const CostModel &cost,
                              PipelineSchedule schedule,
                              const StepRunOptions &opts = {});

} // namespace mobius

#endif // MOBIUS_RUNTIME_API_HH
