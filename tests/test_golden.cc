/**
 * @file
 * Golden fingerprints: pinned digests of one run of every step entry
 * point, every serving policy and a small fleet, plus the cross
 * mapping (§3.3) chosen on a few topologies, one what-if ground truth
 * and the modelled profiling cost. A refactor that
 * claims "same behaviour" must leave every constant here unchanged;
 * a deliberate change to modelled behaviour updates them and says so.
 *
 * Links both mobius_fleet and mobius_serve, so one binary covers the
 * training executors, the serving simulator and the fleet simulator.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "fault/fault_plan.hh"
#include "fleet/fleet_sim.hh"
#include "obs/whatif.hh"
#include "plan/mapping.hh"
#include "runtime/api.hh"
#include "serve/serve_sim.hh"

using namespace mobius;

namespace
{

/** GPT-8B on a 2+2 commodity box with the default Mobius plan. */
struct Gpt8bSetup
{
    Server server = makeCommodityServer({2, 2});
    Workload work{gpt8b(), server};
    MobiusPlan plan = planMobius(server, work.cost());
};

/** serveFingerprint of a 12-request open-loop run under @p policy. */
std::uint64_t
serveDigest(ServePlacement policy)
{
    ServeOptions opts;
    opts.model = gpt3b();
    opts.placement.policy = policy;
    opts.placement.switchHigh = 3;
    opts.batch.maxBatch = 8;
    ServeSim sim(opts);
    ServeRequest proto;
    proto.promptTokens = 64;
    proto.maxNewTokens = 6;
    sim.submitOpenLoop(proto, 12, {{8.0, 1.0}}, 5);
    sim.run();
    return serveFingerprint(sim.records());
}

} // namespace

TEST(Golden, MobiusStepSpanHash)
{
    Gpt8bSetup s;
    const StepRunResult r =
        runMobiusStepEx(s.server, s.work.cost(), s.plan);
    EXPECT_EQ(r.spanHash, 0xdb6f168d1157ab1cULL);
}

TEST(Golden, MobiusStragglerStepSpanHash)
{
    // A compute window on gpu1 throttles it for the whole step.
    Gpt8bSetup s;
    const FaultPlan faults =
        parseFaultSpec("degrade:gpu1=0.5@0+1000", s.server);
    StepRunOptions opts;
    opts.faults = &faults;
    const StepRunResult r =
        runMobiusStepEx(s.server, s.work.cost(), s.plan, opts);
    EXPECT_EQ(r.spanHash, 0x880d18cbf03b26a5ULL);
}

TEST(Golden, ZeroStepSpanHash)
{
    Gpt8bSetup s;
    const StepRunResult r = runZeroStepEx(s.server, s.work.cost());
    EXPECT_EQ(r.spanHash, 0x0b4558c2267e3a4bULL);
}

TEST(Golden, TensorParallelStepTimeBits)
{
    Gpt8bSetup s;
    const StepRunResult r =
        runTensorParallelStep(s.server, s.work.cost());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.stats.stepTime),
              0x400761f0dfa8272fULL);
    EXPECT_EQ(r.spanHash, 0x1b98a09fd205a5c7ULL);
}

TEST(Golden, PipelineStepTimeBits)
{
    // The all-in-GPU pipeline only fits the 3B model on 4x24 GB.
    const Server server = makeCommodityServer({2, 2});
    const Workload work(gpt3b(), server);
    struct Case
    {
        PipelineSchedule schedule;
        std::uint64_t timeBits;
        std::uint64_t spanHash;
    };
    for (const Case &c :
         {Case{PipelineSchedule::OneFOneB, 0x3ff0e05350246accULL,
               0x406e6d7b7d5b40adULL},
          Case{PipelineSchedule::GPipe, 0x3ff0e45bc1253802ULL,
               0x8bee6875ceda7dd1ULL}}) {
        const StepRunResult r =
            runPipelineStep(server, work.cost(), c.schedule);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(r.stats.stepTime),
                  c.timeBits)
            << pipelineScheduleName(c.schedule);
        EXPECT_EQ(r.spanHash, c.spanHash)
            << pipelineScheduleName(c.schedule);
    }
}

TEST(Golden, WhatIfExactStepTimeBits)
{
    // The --whatif-exact ground truth: the baseline plan re-run on
    // the perturbed server with the engine-rate factors applied.
    const Server server = makeCommodityServer({2, 2});
    const Workload work(gpt15b(), server);
    const MobiusPlan plan = planMobius(server, work.cost());
    const std::vector<WhatIfSpec> specs = {
        parseWhatIfSpec("rc0=0.5", server)};
    StepRunOptions opts;
    opts.perturb = runPerturbation(specs, server.topo.numGpus());
    const StepStats st = runMobiusStepEx(perturbServer(server, specs),
                                         work.cost(), plan, opts)
                             .stats;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(st.stepTime),
              0x4012d20e19b9b365ULL);
}

TEST(Golden, ProfilingTimeBits)
{
    // Fig. 12 "MIP profiling", with and without layer similarity.
    const Server server = makeCommodityServer({2, 2});
    const Workload work(gpt51b(), server);
    ProfilerConfig without;
    without.useLayerSimilarity = false;
    const ProfileResult with = profileModel(work.cost());
    const ProfileResult all = profileModel(work.cost(), without);
    EXPECT_EQ(with.profiledLayers, 4);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(with.profilingTime),
              0x3fe5c5ec70e9417cULL);
    EXPECT_EQ(all.profiledLayers, 53);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(all.profilingTime),
              0x403537dd35f6e89aULL);
}

TEST(Golden, ServeFingerprints)
{
    EXPECT_EQ(serveDigest(ServePlacement::MobiusSwap), 0x1e675cd68f738ee5ULL);
    EXPECT_EQ(serveDigest(ServePlacement::AllInGpu), 0x78645254ba20a652ULL);
    EXPECT_EQ(serveDigest(ServePlacement::ZeroGather), 0x98f34f3f20a9266fULL);
    EXPECT_EQ(serveDigest(ServePlacement::Adaptive), 0x274785cb5dc36a98ULL);
}

TEST(Golden, FleetFingerprint)
{
    FleetOptions opts;
    opts.threads = 1;
    opts.servers.push_back({"commodity", {2, 2}, false, 1});
    FleetSim fleet(opts);
    JobSpec proto;
    proto.model = gpt3b();
    proto.groups = {2, 2};
    proto.steps = 2;
    fleet.submitPoisson(proto, 4, 2.0, 42);
    JobSpec zero = proto;
    zero.system = JobSystem::DeepSpeed;
    fleet.submit(zero);
    EXPECT_EQ(fleet.run().fingerprint, 0x864531e2cb994c62ULL);
}

TEST(Golden, CrossMappingOrdersAndContentionBits)
{
    struct Case
    {
        std::vector<int> groups;
        int stages;
        std::vector<int> order;
        std::uint64_t contentionBits;
    };
    const std::vector<Case> cases = {
        {{4, 4}, 16, {0, 4, 1, 5, 2, 6, 3, 7}, 0x404b7c57c57c57c4ULL},
        {{4, 4}, 43, {0, 4, 1, 5, 2, 6, 3, 7}, 0x406cb006f3a9cea5ULL},
        {{4, 4}, 53, {0, 4, 1, 5, 2, 6, 3, 7}, 0x4073091888e2954bULL},
        {{2, 2, 2, 2}, 34, {0, 2, 4, 6, 1, 3, 5, 7}, 0x403e341d41d41d44ULL},
        {{2, 2, 2, 2}, 53, {0, 2, 4, 6, 1, 3, 5, 7}, 0x404d230381ac77e2ULL},
        {{1, 3, 4}, 40, {1, 4, 0, 5, 2, 6, 3, 7}, 0x4062306ffb1e887eULL},
        {{2, 2}, 8, {0, 2, 1, 3}, 0x4021555555555555ULL},
    };
    for (const Case &c : cases) {
        const Server server = makeCommodityServer(c.groups);
        const Mapping m = crossMapping(server.topo, c.stages).mapping;
        EXPECT_EQ(m.gpuOrder, c.order) << "S=" << c.stages;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(m.contention),
                  c.contentionBits)
            << "S=" << c.stages;
    }
}
