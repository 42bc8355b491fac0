/**
 * @file
 * The benchmark's output checks accept real outputs and reject forged
 * bad ones.
 */

#include <gtest/gtest.h>

#include "checks.hh"

using namespace mobius;
using namespace perfbench;

namespace
{

struct Step
{
    Server server = makeCommodityServer({2, 2});
    Workload work{gpt3b(), server};
    MobiusPlan plan = planMobius(server, work.cost());
    Bytes fp32 = work.model().totalParamBytesFp32();
};

TEST(Checks, AcceptRealMobiusStep)
{
    Step s;
    TraceRecorder trace;
    StepRunOptions opts;
    opts.traceOut = &trace;
    StepRunResult r = runMobiusStepEx(s.server, s.work.cost(), s.plan, opts);
    EXPECT_EQ(checkPlan(s.plan, s.work.model().numLayers(), 4), "");
    EXPECT_EQ(checkMobiusStep(r.stats, s.fp32), "");
    EXPECT_EQ(checkAttribution(attributeStep(trace), r.stats.stepTime), "");
    StepRunResult z = runZeroStepEx(s.server, s.work.cost());
    EXPECT_EQ(checkZeroStep(z.stats, s.fp32), "");
}

TEST(Checks, RejectForgedPlan)
{
    Step s;
    const int layers = s.work.model().numLayers();
    MobiusPlan gap = s.plan;
    gap.partition.back().hi -= 1;
    EXPECT_NE(checkPlan(gap, layers, 4), "");
    MobiusPlan infeasible = s.plan;
    infeasible.estimate.feasible = false;
    EXPECT_NE(checkPlan(infeasible, layers, 4), "");
    MobiusPlan dup = s.plan;
    dup.mapping.gpuOrder[0] = dup.mapping.gpuOrder[1];
    EXPECT_NE(checkPlan(dup, layers, 4), "");
}

TEST(Checks, RejectForgedTraffic)
{
    Step s;
    StepRunResult r = runMobiusStepEx(s.server, s.work.cost(), s.plan);
    // ZeRO-sized traffic from a "Mobius" step, and vice versa.
    EXPECT_NE(checkMobiusStep(r.stats, s.fp32 / 4), "");
    EXPECT_NE(checkZeroStep(r.stats, s.fp32), "");
    StepStats zero_time = r.stats;
    zero_time.stepTime = 0.0;
    EXPECT_NE(checkMobiusStep(zero_time, s.fp32), "");
}

TEST(Checks, RejectAttributionOffByMoreThanTolerance)
{
    StepAttribution a;
    a.critical.compute = 1.0;
    a.critical.bubble = 0.5;
    EXPECT_EQ(checkAttribution(a, 1.5), "");
    EXPECT_NE(checkAttribution(a, 1.5 + 1e-6), "");
}

TEST(Checks, RejectForgedServeAndFleet)
{
    ServeMetrics sm;
    sm.requests = sm.completed = 10;
    EXPECT_EQ(checkServe(sm, 10), "");
    sm.completed = 9;
    EXPECT_NE(checkServe(sm, 10), "");
    sm.completed = 10;
    sm.worstSumDrift = 1e-6;
    EXPECT_NE(checkServe(sm, 10), "");

    FleetMetrics fm;
    fm.jobs = fm.completed = 5;
    fm.goodput = 0.9;
    EXPECT_EQ(checkFleet(fm, 5), "");
    fm.goodput = 1.2;
    EXPECT_NE(checkFleet(fm, 5), "");
    fm.goodput = 0.0;
    EXPECT_NE(checkFleet(fm, 5), "");
    fm.goodput = 0.9;
    fm.completed = 4;
    EXPECT_NE(checkFleet(fm, 5), "");
}

} // namespace
