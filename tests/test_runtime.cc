/**
 * @file
 * Integration tests for the executors: Mobius, ZeRO (DeepSpeed) and
 * the all-in-GPU-memory pipelines, plus the high-level API. These
 * assert the paper's qualitative results hold on the simulator.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "plan/partition_mip.hh"
#include "runtime/api.hh"

namespace mobius
{
namespace
{

/** Plan + run Mobius for a Table 3 config on a commodity topology. */
StepStats
mobiusStep(const GptConfig &cfg, const std::vector<int> &groups,
           MobiusPlan *plan_out = nullptr,
           PlanOptions opts = {})
{
    Server server = makeCommodityServer(groups);
    Workload work(cfg, server);
    MobiusPlan plan = planMobius(server, work.cost(), opts);
    StepStats stats = runMobiusStepEx(server, work.cost(), plan).stats;
    if (plan_out)
        *plan_out = plan;
    return stats;
}

TEST(MobiusExecutor, CompletesAndIsDeterministic)
{
    StepStats a = mobiusStep(gpt8b(), {2, 2});
    StepStats b = mobiusStep(gpt8b(), {2, 2});
    EXPECT_GT(a.stepTime, 0.0);
    EXPECT_DOUBLE_EQ(a.stepTime, b.stepTime);
    EXPECT_EQ(a.traffic.totalBytes(), b.traffic.totalBytes());
}

TEST(MobiusExecutor, TrafficMatchesEq1)
{
    // Eq. 1: ~1.5x model size; with boundary activations and
    // checkpoints the paper measures ~1.8x (Fig. 6).
    for (auto cfg : {gpt8b(), gpt15b()}) {
        Server server = makeCommodityServer({2, 2});
        Workload work(cfg, server);
        MobiusPlan plan = planMobius(server, work.cost());
        StepStats s = runMobiusStepEx(server, work.cost(), plan).stats;
        double ratio =
            s.trafficRatio(work.model().totalParamBytesFp32());
        EXPECT_GT(ratio, 1.2) << cfg.name;
        EXPECT_LT(ratio, 2.2) << cfg.name;
    }
}

TEST(MobiusExecutor, ParameterTrafficTwoCopiesMinusResidentTail)
{
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt8b(), server);
    MobiusPlan plan = planMobius(server, work.cost());
    StepStats s = runMobiusStepEx(server, work.cost(), plan).stats;

    Bytes fp16 = work.model().totalParamBytesFp16();
    Bytes params = s.traffic.bytesOf(TrafficKind::Parameter);
    EXPECT_GT(params, fp16);        // more than one copy
    EXPECT_LE(params, 2 * fp16);    // at most two copies
    // Gradients land exactly once.
    EXPECT_EQ(s.traffic.bytesOf(TrafficKind::Gradient), fp16);
}

TEST(MobiusExecutor, EstimateTracksExecution)
{
    // The MIP objective ignores contention, so it may be optimistic,
    // but it must be within ~3x of the event-driven execution.
    MobiusPlan plan;
    StepStats s = mobiusStep(gpt15b(), {2, 2}, &plan);
    EXPECT_GT(s.stepTime, plan.estimate.stepTime * 0.9);
    EXPECT_LT(s.stepTime, plan.estimate.stepTime * 3.0);
}

TEST(MobiusExecutor, SingleGpuWorks)
{
    Server server = makeCommodityServer({1});
    Workload work(gpt8b(), server, -1, 2);
    MobiusPlan plan = planMobius(server, work.cost());
    StepStats s = runMobiusStepEx(server, work.cost(), plan).stats;
    EXPECT_GT(s.stepTime, 0.0);
}

TEST(MobiusExecutor, EightGpusWork)
{
    StepStats s = mobiusStep(gpt15b(), {4, 4});
    EXPECT_GT(s.stepTime, 0.0);
    EXPECT_EQ(s.numGpus, 8);
}

TEST(ZeroExecutor, TrafficMatchesEq2)
{
    // Eq. 2: ~1.5N x model size (~6x at N = 4; the paper measures
    // 7.3x with framework overheads).
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt15b(), server);
    StepStats s = runZeroStepEx(server, work.cost()).stats;
    double ratio =
        s.trafficRatio(work.model().totalParamBytesFp32());
    EXPECT_GT(ratio, 5.0);
    EXPECT_LT(ratio, 8.0);
}

TEST(ZeroExecutor, ContentionHalvesObservedBandwidth)
{
    // Fig. 2: most DeepSpeed bytes move at <= half the root-complex
    // bandwidth on Topo 2+2.
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt15b(), server);
    StepStats s = runZeroStepEx(server, work.cost()).stats;
    BandwidthCdf cdf(s.traffic.samples());
    EXPECT_LT(cdf.quantile(0.5), 0.55 * kPcie3x16Bw);
}

TEST(ZeroExecutor, LayerSyncOffStillCompletes)
{
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt8b(), server);
    StepRunOptions opts;
    opts.zero.layerSync = false;
    StepStats s = runZeroStepEx(server, work.cost(), opts).stats;
    EXPECT_GT(s.stepTime, 0.0);
}

TEST(Headline, MobiusBeatsDeepSpeedOnCommodity)
{
    // The paper's main result (Fig. 5): 3.8-5.1x on commodity
    // topologies. Allow a generous band around it.
    for (auto cfg : {gpt8b(), gpt15b()}) {
        for (const auto &groups :
             {std::vector<int>{2, 2}, std::vector<int>{1, 3},
              std::vector<int>{4}}) {
            Server server = makeCommodityServer(groups);
            Workload work(cfg, server);
            MobiusPlan plan = planMobius(server, work.cost());
            StepStats mob = runMobiusStepEx(server, work.cost(), plan).stats;
            StepStats ds = runZeroStepEx(server, work.cost()).stats;
            double speedup = ds.stepTime / mob.stepTime;
            EXPECT_GT(speedup, 2.5)
                << cfg.name << " groups=" << groups.size();
            EXPECT_LT(speedup, 8.0) << cfg.name;
        }
    }
}

TEST(Headline, MobiusReducesExposedCommunication)
{
    // Fig. 8: Mobius's non-overlapped communication share is well
    // below DeepSpeed's.
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt15b(), server);
    MobiusPlan plan = planMobius(server, work.cost());
    StepStats mob = runMobiusStepEx(server, work.cost(), plan).stats;
    StepStats ds = runZeroStepEx(server, work.cost()).stats;
    EXPECT_LT(mob.exposedCommFraction(),
              ds.exposedCommFraction() - 0.1);
}

TEST(Headline, MobiusBandwidthNearLinkPeak)
{
    // Fig. 7: more than half of Mobius's bytes move at > 12 GB/s.
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt8b(), server);
    MobiusPlan plan = planMobius(server, work.cost());
    StepStats s = runMobiusStepEx(server, work.cost(), plan).stats;
    BandwidthCdf cdf(s.traffic.samples());
    EXPECT_LT(cdf.fractionAtOrBelow(12e9), 0.5);
    EXPECT_NEAR(cdf.maxBandwidth(), kPcie3x16Bw, 0.05 * kPcie3x16Bw);
}

TEST(Pipeline, GPipeTrains3bOnly)
{
    Server server = makeCommodityServer({2, 2});
    Workload w3(gpt3b(), server);
    StepStats s = runPipelineStep(server, w3.cost(),
                                  PipelineSchedule::GPipe).stats;
    EXPECT_GT(s.stepTime, 0.0);
    // Only activations cross the wire: tiny traffic.
    EXPECT_LT(s.trafficRatio(w3.model().totalParamBytesFp32()),
              0.05);

    for (auto cfg : {gpt8b(), gpt15b(), gpt51b()}) {
        Workload w(cfg, server);
        EXPECT_THROW(runPipelineStep(server, w.cost(),
                                     PipelineSchedule::GPipe),
                     FatalError)
            << cfg.name;
    }
}

TEST(Pipeline, OneFOneBNoSlowerThanGPipe)
{
    Server server = makeCommodityServer({2, 2});
    Workload w(gpt3b(), server);
    StepStats gpipe = runPipelineStep(server, w.cost(),
                                      PipelineSchedule::GPipe).stats;
    StepStats ofob = runPipelineStep(server, w.cost(),
                                     PipelineSchedule::OneFOneB).stats;
    EXPECT_LE(ofob.stepTime, gpipe.stepTime * 1.01);
}

TEST(Mapping, CrossMappingNoSlowerOnEightGpus)
{
    // Fig. 10: cross mapping reduces per-step time on the 8-GPU box
    // (four GPUs per root complex).
    Server server = makeCommodityServer({4, 4});
    Workload work(gpt8b(), server);
    PlanOptions cross_opts;
    cross_opts.mapping = MappingAlgo::Cross;
    PlanOptions seq_opts;
    seq_opts.mapping = MappingAlgo::Sequential;
    MobiusPlan cross = planMobius(server, work.cost(), cross_opts);
    MobiusPlan seq = planMobius(server, work.cost(), seq_opts);
    StepStats sc = runMobiusStepEx(server, work.cost(), cross).stats;
    StepStats ss = runMobiusStepEx(server, work.cost(), seq).stats;
    EXPECT_LE(sc.stepTime, ss.stepTime * 1.001);
}

TEST(PartitionAblation, MipNoSlowerThanBaselinesExecuted)
{
    // Fig. 9 direction: MIP partition executes no slower than the
    // min/max-stage baselines (checked on the event simulator, not
    // just the analytic objective).
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt8b(), server);
    auto run = [&](PartitionAlgo algo) {
        PlanOptions opts;
        opts.partition = algo;
        MobiusPlan plan = planMobius(server, work.cost(), opts);
        return runMobiusStepEx(server, work.cost(), plan).stats.stepTime;
    };
    double mip = run(PartitionAlgo::Mip);
    double maxs = run(PartitionAlgo::MaxStage);
    EXPECT_LE(mip, maxs * 1.05);
}

TEST(DataCenter, DeepSpeedCompetitiveWithNvlink)
{
    // §4.8: with NVLink + P2P, DeepSpeed improves dramatically and
    // beats Mobius (which still streams stages over PCIe).
    Server dc = makeDataCenterServer(4);
    Workload work(gpt8b(), dc, 2);
    MobiusPlan plan = planMobius(dc, work.cost());
    StepStats mob = runMobiusStepEx(dc, work.cost(), plan).stats;
    StepStats ds = runZeroStepEx(dc, work.cost()).stats;
    EXPECT_LT(ds.stepTime, mob.stepTime);

    // And both beat the commodity box in absolute time.
    Server c = makeCommodityServer({2, 2});
    Workload cw(gpt8b(), c, 2);
    StepStats cds = runZeroStepEx(c, cw.cost()).stats;
    EXPECT_LT(ds.stepTime, cds.stepTime);
}

TEST(DataCenter, PricePerStepFavoursCommodity)
{
    // Fig. 15b: Mobius on the commodity box costs less per step than
    // DeepSpeed on the data-center server.
    Server dc = makeDataCenterServer(4);
    Workload dwork(gpt15b(), dc, 2);
    StepStats ds_dc = runZeroStepEx(dc, dwork.cost()).stats;
    double dc_price = ds_dc.stepTime / 3600.0 * dc.dollarsPerHour;

    Server c = makeCommodityServer({2, 2});
    Workload cwork(gpt15b(), c, 2);
    MobiusPlan plan = planMobius(c, cwork.cost());
    StepStats mob_c = runMobiusStepEx(c, cwork.cost(), plan).stats;
    double c_price = mob_c.stepTime / 3600.0 * c.dollarsPerHour;

    EXPECT_LT(c_price, dc_price);
}

TEST(Scalability, ThroughputScalesWithGpus)
{
    // Fig. 14: batch grows with GPU count (M = N), throughput
    // (samples/s) scales at least linearly from 2 to 8 GPUs.
    auto throughput = [&](int gpus) {
        Server server =
            makeCommodityServer({gpus / 2, gpus - gpus / 2});
        Workload work(gpt15b(), server, 1, gpus);
        MobiusPlan plan = planMobius(server, work.cost());
        StepStats s = runMobiusStepEx(server, work.cost(), plan).stats;
        return gpus * 1.0 / s.stepTime;
    };
    double t2 = throughput(2);
    double t4 = throughput(4);
    double t8 = throughput(8);
    EXPECT_GT(t4, t2 * 1.6);
    EXPECT_GT(t8, t4 * 1.6);
}

TEST(GpuMemoryLedger, BasicInvariants)
{
    GpuMemory mem(1000);
    EXPECT_TRUE(mem.tryAlloc(600));
    EXPECT_FALSE(mem.tryAlloc(500));
    EXPECT_EQ(mem.available(), 400u);
    mem.free(100);
    EXPECT_EQ(mem.used(), 500u);
    EXPECT_EQ(mem.peak(), 600u);
    EXPECT_THROW(mem.alloc(600), FatalError);
}

TEST(GpuMemoryLedger, PeaksStayWithinCapacityDuringRun)
{
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt15b(), server);
    MobiusPlan plan = planMobius(server, work.cost());
    RunContext ctx(server);
    MobiusExecutor exec(ctx, work.cost(), plan.partition,
                        plan.mapping);
    exec.run();
    for (int g = 0; g < ctx.numGpus(); ++g) {
        EXPECT_LE(ctx.memory(g).peak(), ctx.memory(g).capacity());
        EXPECT_EQ(ctx.memory(g).used(), 0u); // everything freed
    }
}

TEST(Workload, DefaultsFollowTable3AndServer)
{
    Server server = makeCommodityServer({2, 2});
    Workload w(gpt15b(), server);
    EXPECT_EQ(w.train().microbatchSize, 1);
    EXPECT_EQ(w.train().numMicrobatches, 4);
    Workload w2(gpt8b(), server, 4, 8);
    EXPECT_EQ(w2.train().microbatchSize, 4);
    EXPECT_EQ(w2.train().numMicrobatches, 8);
}

TEST(Workload, NonPositiveMicrobatchSettingsAreFatal)
{
    Server server = makeCommodityServer({2, 2});
    EXPECT_THROW(Workload(gpt8b(), server, 0), FatalError);
    EXPECT_THROW(Workload(gpt8b(), server, -3), FatalError);
    EXPECT_THROW(Workload(gpt8b(), server, -1, 0), FatalError);
    EXPECT_THROW(Workload(gpt8b(), server, -1, -2), FatalError);
    EXPECT_NO_THROW(Workload(gpt8b(), server, -1, -1));
}

TEST(CpuOptimizer, NegativeThroughputIsFatal)
{
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt3b(), server);
    MobiusPlan plan = planMobius(server, work.cost());
    StepRunOptions opts;
    opts.cpuAdamThroughput = -5.0;
    EXPECT_THROW(runMobiusStepEx(server, work.cost(), plan, opts),
                 FatalError);
    EXPECT_THROW(runZeroStepEx(server, work.cost(), opts), FatalError);
    // 0 stays the documented "no CPU optimizer model".
    opts.cpuAdamThroughput = 0.0;
    EXPECT_GT(runMobiusStepEx(server, work.cost(), plan, opts)
                  .stats.stepTime,
              0.0);
}

TEST(Plan, OverheadFieldsPopulated)
{
    Server server = makeCommodityServer({1, 3});
    Workload work(gpt8b(), server);
    MobiusPlan plan = planMobius(server, work.cost());
    EXPECT_GT(plan.profilingSeconds, 0.0);
    EXPECT_GE(plan.solveSeconds, 0.0);
    EXPECT_GE(plan.mappingSeconds, 0.0);
    EXPECT_EQ(plan.profiledLayers, 4); // layer similarity
}

TEST(Plan, MappingEvaluatedCounterRecorded)
{
    // One scored order per class of Eq. 13-equivalent orders:
    // C(8,4) / 2 on 4+4.
    Server server = makeCommodityServer({4, 4});
    Workload work(gpt8b(), server);
    MetricsRegistry metrics;
    PlanOptions opts;
    opts.metrics = &metrics;
    planMobius(server, work.cost(), opts);
    const Counter *evaluated =
        metrics.findCounter("plan.mapping.evaluated");
    ASSERT_NE(evaluated, nullptr);
    EXPECT_EQ(evaluated->value(), 35.0);

    // Sequential mapping searches nothing; a disabled registry
    // records nothing.
    MetricsRegistry seq_metrics;
    opts.metrics = &seq_metrics;
    opts.mapping = MappingAlgo::Sequential;
    planMobius(server, work.cost(), opts);
    EXPECT_EQ(seq_metrics.findCounter("plan.mapping.evaluated"),
              nullptr);
    MetricsRegistry off(false);
    opts.metrics = &off;
    opts.mapping = MappingAlgo::Cross;
    planMobius(server, work.cost(), opts);
    EXPECT_EQ(off.size(), 0u);
}

TEST(Plan, PartitionEvaluatedCounterRecorded)
{
    // GPT-8B (43 layers) on 2+2 sweeps stage counts 4..43. The
    // search scores each seed and its hill-climb moves once; the
    // count is exact, so a change in search work shows here.
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt8b(), server);
    MetricsRegistry metrics;
    PlanOptions opts;
    opts.metrics = &metrics;
    planMobius(server, work.cost(), opts);
    const Counter *evaluated =
        metrics.findCounter("plan.partition.evaluated");
    ASSERT_NE(evaluated, nullptr);
    EXPECT_EQ(evaluated->value(), 895.0);

    // A disabled registry records nothing.
    MetricsRegistry off(false);
    opts.metrics = &off;
    planMobius(server, work.cost(), opts);
    EXPECT_EQ(off.size(), 0u);
}

TEST(Plan, ExactMipEvaluatedCounterThreadInvariant)
{
    // The exact MIP counts the schedules its per-stage-count seeding
    // scores, summed in stage order after the sweep joins, so the
    // count does not depend on the worker count. Solved here over
    // the evaluator planMobius builds for a real cost model.
    ModelDesc model;
    model.name = "toy";
    model.seqLen = 512;
    model.hidden = 1024;
    model.heads = 8;
    for (int i = 0; i < 6; ++i) {
        LayerDesc l;
        l.name = "l" + std::to_string(i);
        l.type = LayerType::TransformerBlock;
        l.paramCount = 100'000'000;
        l.fwdFlopsPerSample = 3e12;
        l.actBytesPerSample = 8 * MiB;
        l.workBytesPerSample = 32 * MiB;
        model.layers.push_back(l);
    }
    Server server = makeCommodityServer({2, 2});
    CostModel cost(model, server.topo.gpuSpec(0),
                   TrainConfig{1, 4, true, 0.45, 30e-6});
    PipelineEnv env;
    env.numGpus = server.topo.numGpus();
    env.gpuMemBytes = server.topo.gpuSpec(0).memBytes;
    env.avgBandwidth = kPcie3x16Bw;
    PipelineCostEvaluator eval(cost, env);

    int counts[2] = {0, 0};
    for (int k = 0; k < 2; ++k) {
        MipOptions mip;
        mip.maxNodes = 20000;
        mip.threads = k == 0 ? 1 : 4;
        ExactMipResult r =
            exactMipPartition(eval, cost.numLayers(), mip);
        ASSERT_TRUE(r.solved);
        counts[k] = r.evaluated;
    }
    EXPECT_GT(counts[0], 0);
    EXPECT_EQ(counts[0], counts[1]);
}

TEST(Plan, Gpt51bPlansAndRuns)
{
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt51b(), server);
    MobiusPlan plan = planMobius(server, work.cost());
    StepStats s = runMobiusStepEx(server, work.cost(), plan).stats;
    EXPECT_GT(s.stepTime, 0.0);
}

} // namespace
} // namespace mobius
