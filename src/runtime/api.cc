#include "runtime/api.hh"

#include "base/logging.hh"
#include "simcore/trace.hh"

namespace mobius
{

Workload::Workload(const GptConfig &cfg, const Server &server,
                   int microbatch_size, int num_microbatches)
{
    if (microbatch_size != -1 && microbatch_size <= 0)
        fatal("microbatch size must be positive or -1 (got %d)",
              microbatch_size);
    if (num_microbatches != -1 && num_microbatches <= 0)
        fatal("microbatch count must be positive or -1 (got %d)",
              num_microbatches);
    model_ = std::make_unique<ModelDesc>(makeGptModel(cfg));
    train_.microbatchSize = microbatch_size > 0
        ? microbatch_size
        : cfg.microbatchSize;
    train_.numMicrobatches = num_microbatches > 0
        ? num_microbatches
        : server.topo.numGpus();
    if (server.topo.numGpus() < 1)
        fatal("workload needs a server with at least one GPU");
    cost_ = std::make_unique<CostModel>(
        *model_, server.topo.gpuSpec(0), train_);
}

MobiusPlan
planMobius(const Server &server, const CostModel &cost,
           const PlanOptions &opts)
{
    MobiusPlan plan;
    const int n = server.topo.numGpus();

    // 1. Profile (layer similarity keeps this flat across depths).
    ProfileResult prof = profileModel(cost);
    plan.profilingSeconds = prof.profilingTime;
    plan.profiledLayers = prof.profiledLayers;

    // 2. Partition via the chosen algorithm under the Eq. 3-11
    //    objective.
    PipelineEnv env;
    env.numGpus = n;
    env.gpuMemBytes = server.topo.gpuSpec(0).memBytes;
    env.avgBandwidth = kPcie3x16Bw;
    PipelineCostEvaluator eval(cost, env);

    PartitionResult part;
    switch (opts.partition) {
      case PartitionAlgo::Mip:
        part = mipPartition(eval);
        break;
      case PartitionAlgo::MinStage:
        part = minStagePartition(eval);
        break;
      case PartitionAlgo::MaxStage:
        part = maxStagePartition(eval);
        break;
    }
    if (!part.estimate.feasible) {
        const char *name = "MIP";
        switch (opts.partition) {
          case PartitionAlgo::Mip:      name = "MIP"; break;
          case PartitionAlgo::MinStage: name = "minimum-stage"; break;
          case PartitionAlgo::MaxStage: name = "maximum-stage"; break;
        }
        fatal("%s partition infeasible: %s", name,
              part.estimate.infeasibleReason.c_str());
    }
    plan.partition = std::move(part.partition);
    plan.estimate = std::move(part.estimate);
    plan.solveSeconds = part.solveSeconds;

    const bool record = opts.metrics && opts.metrics->enabled();
    if (record) {
        opts.metrics->counter("plan.partition.evaluated")
            .add(static_cast<double>(part.evaluated));
    }

    // 3. Map stages to GPUs.
    if (opts.mapping == MappingAlgo::Cross) {
        MappingResult cross =
            crossMapping(server.topo, plan.stageCount());
        plan.mapping = std::move(cross.mapping);
        plan.mappingSeconds = cross.searchSeconds;
        if (record) {
            opts.metrics->counter("plan.mapping.evaluated")
                .add(static_cast<double>(cross.evaluated));
        }
    } else {
        plan.mapping =
            sequentialMapping(server.topo, plan.stageCount());
        plan.mappingSeconds = 0.0;
    }
    return plan;
}

StepStats
runStep(RunContext &ctx, const CostModel &cost, StepSystem system,
        const MobiusPlan *plan, const MobiusExecutorConfig &mobius,
        const ZeroExecutorConfig &zero)
{
    switch (system) {
      case StepSystem::Mobius:
        if (!plan)
            panic("a Mobius step needs a plan");
        return MobiusExecutor(ctx, cost, plan->partition,
                              plan->mapping, mobius)
            .run();
      case StepSystem::Zero:
        return ZeroHeteroExecutor(ctx, cost, zero).run();
      case StepSystem::GPipe:
      case StepSystem::OneFOneB: {
        const int n = ctx.numGpus();
        return PipelineExecutor(ctx, cost,
                                balancedComputePartition(cost, n),
                                sequentialMapping(ctx.server().topo, n),
                                system == StepSystem::GPipe
                                    ? PipelineSchedule::GPipe
                                    : PipelineSchedule::OneFOneB)
            .run();
      }
      case StepSystem::TensorParallel:
        return TensorParallelExecutor(ctx, cost).run();
    }
    panic("unknown step system %d", static_cast<int>(system));
}

namespace
{

/** The body every step entry point shares: one fresh context, one
 *  executor, then the trace digest and the optional hand-off. */
StepRunResult
runFreshStep(const Server &server, const CostModel &cost,
             StepSystem system, const MobiusPlan *plan,
             const StepRunOptions &opts)
{
    RunContext ctx(server, opts);
    StepRunResult res;
    res.stats = runStep(ctx, cost, system, plan, opts.mobius,
                        opts.zero);
    res.spanCount = ctx.trace().spanCount();
    res.spanHash = spanFingerprint(ctx.trace());
    if (opts.traceOut)
        ctx.trace().moveInto(*opts.traceOut);
    return res;
}

} // namespace

StepRunResult
runMobiusStepEx(const Server &server, const CostModel &cost,
                const MobiusPlan &plan, const StepRunOptions &opts)
{
    return runFreshStep(server, cost, StepSystem::Mobius, &plan, opts);
}

StepRunResult
runZeroStepEx(const Server &server, const CostModel &cost,
              const StepRunOptions &opts)
{
    return runFreshStep(server, cost, StepSystem::Zero, nullptr, opts);
}

StepRunResult
runTensorParallelStep(const Server &server, const CostModel &cost,
                      const StepRunOptions &opts)
{
    return runFreshStep(server, cost, StepSystem::TensorParallel,
                        nullptr, opts);
}

StepRunResult
runPipelineStep(const Server &server, const CostModel &cost,
                PipelineSchedule schedule, const StepRunOptions &opts)
{
    return runFreshStep(server, cost,
                        schedule == PipelineSchedule::GPipe
                            ? StepSystem::GPipe
                            : StepSystem::OneFOneB,
                        nullptr, opts);
}

} // namespace mobius
