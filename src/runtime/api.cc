#include "runtime/api.hh"

#include <algorithm>
#include <chrono>

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
      case PartitionAlgo::ExactMip: {
        // Sweep every stage count up to one layer per stage.
        ExactMipResult exact = exactMipPartition(
            eval, cost.numLayers(), opts.mip, opts.metrics);
        if (!exact.solved) {
            fatal("exact MIP partition found no feasible partition "
                  "within its node/time budget");
        }
        part.partition = std::move(exact.partition);
        part.estimate = eval.evaluate(part.partition);
        part.solveSeconds = exact.wallSeconds;
        part.evaluated = static_cast<int>(
            std::min<std::uint64_t>(exact.nodes, 1000000000ULL));
        break;
      }
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
          case PartitionAlgo::ExactMip: name = "exact-MIP"; break;
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
    // The exact MIP reports its search as plan.mip.nodes instead.
    if (record && opts.partition != PartitionAlgo::ExactMip) {
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

StepRunResult
runMobiusStepEx(const Server &server, const CostModel &cost,
                const MobiusPlan &plan, const StepRunOptions &opts)
{
    RunContext ctx(server, {}, opts.cpuAdamThroughput, opts.metrics, {},
                   opts.faults, opts.faultSeed);
    MobiusExecutor exec(ctx, cost, plan.partition, plan.mapping,
                        opts.mobius);
    StepRunResult res;
    res.stats = exec.run();
    res.spanCount = ctx.trace().spanCount();
    res.spanHash = spanFingerprint(ctx.trace());
    if (opts.traceOut)
        ctx.trace().moveInto(*opts.traceOut);
    return res;
}

StepRunResult
runZeroStepEx(const Server &server, const CostModel &cost,
              const StepRunOptions &opts)
{
    RunContext ctx(server, {}, opts.cpuAdamThroughput, opts.metrics, {},
                   opts.faults, opts.faultSeed);
    ZeroHeteroExecutor exec(ctx, cost, opts.zero);
    StepRunResult res;
    res.stats = exec.run();
    res.spanCount = ctx.trace().spanCount();
    res.spanHash = spanFingerprint(ctx.trace());
    if (opts.traceOut)
        ctx.trace().moveInto(*opts.traceOut);
    return res;
}

StepStats
runTensorParallelStep(const Server &server, const CostModel &cost)
{
    RunContext ctx(server);
    TensorParallelExecutor exec(ctx, cost);
    return exec.run();
}

StepStats
runPipelineStep(const Server &server, const CostModel &cost,
                PipelineSchedule schedule)
{
    const int n = server.topo.numGpus();
    Partition partition = balancedComputePartition(cost, n);
    Mapping mapping = sequentialMapping(server.topo,
                                        static_cast<int>(n));
    RunContext ctx(server);
    PipelineExecutor exec(ctx, cost, std::move(partition),
                          std::move(mapping), schedule);
    return exec.run();
}

} // namespace mobius
