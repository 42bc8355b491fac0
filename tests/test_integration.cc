/**
 * @file
 * Cross-cutting integration tests: unusual server configurations
 * (P2P-capable commodity boxes, the DC server), evaluator/executor
 * agreement across every Table 3 model, and end-to-end consistency
 * of the high-level API.
 */

#include <gtest/gtest.h>

#include "runtime/api.hh"

namespace mobius
{
namespace
{

TEST(Integration, A100CommodityUsesP2pFabric)
{
    // A P2P-capable GPU on a PCIe-only box routes GPU-GPU transfers
    // over the fabric (no DRAM staging). The executor must run and
    // activations must flow.
    Server server = makeCommodityServer({2, 2}, a100());
    ASSERT_TRUE(server.topo.gpudirectP2p());
    Workload work(gpt15b(), server);
    MobiusPlan plan = planMobius(server, work.cost());
    StepStats s = runMobiusStepEx(server, work.cost(), plan).stats;
    EXPECT_GT(s.stepTime, 0.0);
    EXPECT_GT(s.traffic.bytesOf(TrafficKind::Activation), 0u);
}

TEST(Integration, A100NoFasterLinksButMoreMemory)
{
    // Same PCIe, so Mobius is similar; but 40 GB GPUs let GPipe
    // train the 8B model that OOMs on 24 GB 3090-Tis.
    Server a = makeCommodityServer({2, 2}, a100());
    Workload w8(gpt8b(), a);
    StepStats s = runPipelineStep(a, w8.cost(),
                                  PipelineSchedule::GPipe).stats;
    EXPECT_GT(s.stepTime, 0.0);
}

TEST(Integration, MappingIrrelevantOnDcServer)
{
    // With NVLink P2P, activations bypass the root complexes, so
    // cross vs sequential mapping makes little difference.
    Server dc = makeDataCenterServer(4);
    Workload work(gpt8b(), dc, 2);
    PlanOptions cross;
    cross.mapping = MappingAlgo::Cross;
    PlanOptions seq;
    seq.mapping = MappingAlgo::Sequential;
    StepStats sc = runMobiusStepEx(
        dc, work.cost(), planMobius(dc, work.cost(), cross)).stats;
    StepStats ss = runMobiusStepEx(
        dc, work.cost(), planMobius(dc, work.cost(), seq)).stats;
    EXPECT_NEAR(sc.stepTime, ss.stepTime, ss.stepTime * 0.1);
}

class Table3Models : public ::testing::TestWithParam<int>
{
  protected:
    GptConfig cfg() const { return table3Models()[GetParam()]; }
};

TEST_P(Table3Models, EstimateTracksExecution)
{
    // The Eq. 3-11 evaluator must stay within a constant factor of
    // the event-driven execution for every model (it ignores
    // contention, so it is optimistic but bounded).
    Server server = makeCommodityServer({2, 2});
    Workload work(cfg(), server);
    MobiusPlan plan = planMobius(server, work.cost());
    StepStats s = runMobiusStepEx(server, work.cost(), plan).stats;
    EXPECT_GE(s.stepTime, plan.estimate.stepTime * 0.95);
    EXPECT_LE(s.stepTime, plan.estimate.stepTime * 3.0);
}

TEST_P(Table3Models, SpeedupInPaperBand)
{
    // Fig. 5 headline on Topo 2+2, generous bounds.
    Server server = makeCommodityServer({2, 2});
    Workload work(cfg(), server);
    MobiusPlan plan = planMobius(server, work.cost());
    StepStats mob = runMobiusStepEx(server, work.cost(), plan).stats;
    StepStats ds = runZeroStepEx(server, work.cost()).stats;
    double speedup = ds.stepTime / mob.stepTime;
    EXPECT_GT(speedup, 3.0) << cfg().name;
    EXPECT_LT(speedup, 7.0) << cfg().name;
}

TEST_P(Table3Models, MobiusTrafficNearEq1)
{
    Server server = makeCommodityServer({2, 2});
    Workload work(cfg(), server);
    MobiusPlan plan = planMobius(server, work.cost());
    StepStats s = runMobiusStepEx(server, work.cost(), plan).stats;
    double ratio =
        s.trafficRatio(work.model().totalParamBytesFp32());
    EXPECT_GT(ratio, 1.2) << cfg().name;
    EXPECT_LT(ratio, 2.2) << cfg().name;
}

INSTANTIATE_TEST_SUITE_P(All, Table3Models,
                         ::testing::Range(0, 4));

TEST(Integration, ThreeRootComplexTopologies)
{
    // Odd groupings (e.g. 1+1+2) must plan and run.
    for (const auto &groups :
         {std::vector<int>{1, 1, 2}, std::vector<int>{2, 1, 1},
          std::vector<int>{1, 2, 3}}) {
        Server server = makeCommodityServer(groups);
        Workload work(gpt8b(), server);
        MobiusPlan plan = planMobius(server, work.cost());
        StepStats s = runMobiusStepEx(server, work.cost(), plan).stats;
        EXPECT_GT(s.stepTime, 0.0);
    }
}

TEST(Integration, MoreMicrobatchesScaleStepTimeSublinearly)
{
    // Doubling M doubles the compute but amortises stage loads:
    // step time must grow by less than 2x.
    Server server = makeCommodityServer({2, 2});
    Workload w4(gpt15b(), server, 1, 4);
    Workload w8(gpt15b(), server, 1, 8);
    StepStats s4 = runMobiusStepEx(server, w4.cost(),
                                 planMobius(server, w4.cost())).stats;
    StepStats s8 = runMobiusStepEx(server, w8.cost(),
                                 planMobius(server, w8.cost())).stats;
    EXPECT_GT(s8.stepTime, s4.stepTime);
    EXPECT_LT(s8.stepTime, s4.stepTime * 2.0);
}

TEST(Integration, DcServerPipelineModeWorks)
{
    // GPipe on the DC box with the 3B model (fits in 16 GB V100s?
    // — if not, the memory ledger throws and the test documents it).
    Server dc = makeDataCenterServer(4);
    Workload work(gpt3b(), dc);
    try {
        StepStats s = runPipelineStep(dc, work.cost(),
                                      PipelineSchedule::GPipe).stats;
        EXPECT_GT(s.stepTime, 0.0);
    } catch (const FatalError &e) {
        // 16 GB per V100 is indeed tight for 3B with optimizer
        // states resident; either outcome is acceptable, but it
        // must be an explicit OOM, not a crash.
        EXPECT_NE(std::string(e.what()).find("memory"),
                  std::string::npos);
    }
}

} // namespace
} // namespace mobius
