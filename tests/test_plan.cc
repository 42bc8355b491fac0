/**
 * @file
 * Tests for partitioning, the pipeline schedule evaluator, the
 * partition algorithms and the stage mapping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "base/logging.hh"
#include "base/rng.hh"
#include "hw/server.hh"
#include "oracles/mapping_reference.hh"
#include "oracles/partition_reference.hh"
#include "oracles/pipeline_cost_reference.hh"
#include "plan/mapping.hh"
#include "plan/partition_algos.hh"
#include "plan/partition_mip.hh"
#include "plan/pipeline_cost.hh"

namespace mobius
{
namespace
{

/** Uniform toy model: @p layers identical blocks. */
ModelDesc
toyModel(int layers, std::uint64_t params_per_layer = 100'000'000,
         Bytes act = 8 * MiB, double flops = 3e12)
{
    ModelDesc m;
    m.name = "toy";
    m.seqLen = 512;
    m.hidden = 1024;
    m.heads = 8;
    for (int i = 0; i < layers; ++i) {
        LayerDesc l;
        l.name = "l" + std::to_string(i);
        l.type = LayerType::TransformerBlock;
        l.paramCount = params_per_layer;
        l.fwdFlopsPerSample = flops;
        l.actBytesPerSample = act;
        l.workBytesPerSample = 32 * MiB;
        l.similarityClass = 0;
        m.layers.push_back(l);
    }
    return m;
}

/** Owns the model/cost/evaluator chain (they hold pointers). */
struct ToyEnv
{
    ToyEnv(int layers, int gpus, int microbatches, Bytes gpu_mem)
        : model(toyModel(layers)),
          cost(model, rtx3090Ti(),
               TrainConfig{1, microbatches, true, 0.45, 30e-6}),
          eval(cost, PipelineEnv{gpus, gpu_mem, 13.1e9, true})
    {}

    ModelDesc model;
    CostModel cost;
    PipelineCostEvaluator eval;
};

ToyEnv *
makeToy(int layers, int gpus, int microbatches, Bytes gpu_mem)
{
    return new ToyEnv(layers, gpus, microbatches, gpu_mem);
}

TEST(Partition, ValidityChecks)
{
    EXPECT_TRUE(partitionValid({{0, 3}, {3, 5}}, 5));
    EXPECT_FALSE(partitionValid({{0, 3}, {3, 5}}, 6)); // not covering
    EXPECT_FALSE(partitionValid({{0, 3}, {4, 5}}, 5)); // gap
    EXPECT_FALSE(partitionValid({{0, 3}, {2, 5}}, 5)); // overlap
    EXPECT_FALSE(partitionValid({{0, 0}, {0, 5}}, 5)); // empty stage
    EXPECT_FALSE(partitionValid({}, 0));
}

TEST(Partition, UniformSplitsEvenly)
{
    Partition p = uniformPartition(10, 4);
    EXPECT_EQ(partitionToString(p), "3|3|2|2");
    EXPECT_TRUE(partitionValid(p, 10));
    EXPECT_EQ(uniformPartition(8, 4).size(), 4u);
    EXPECT_EQ(partitionToString(uniformPartition(8, 4)), "2|2|2|2");
}

TEST(Partition, FromSizesRoundTrips)
{
    Partition p = partitionFromSizes({2, 5, 1});
    EXPECT_TRUE(partitionValid(p, 8));
    EXPECT_EQ(p[1].lo, 2);
    EXPECT_EQ(p[1].hi, 7);
    EXPECT_EQ(partitionToString(p), "2|5|1");
}

class EvaluatorTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // 8 layers, 2 GPUs, 2 microbatches, roomy memory.
        env_.reset(makeToy(8, 2, 2, 4 * GiB));
    }

    std::unique_ptr<ToyEnv> env_;
};

TEST_F(EvaluatorTest, FeasibleUniformPartition)
{
    auto est = env_->eval.evaluate(uniformPartition(8, 4));
    ASSERT_TRUE(est.feasible) << est.infeasibleReason;
    EXPECT_GT(est.stepTime, 0.0);
    ASSERT_EQ(est.stages.size(), 4u);

    // Pipeline-order invariants (Eq. 8/10/11).
    for (std::size_t j = 1; j < est.stages.size(); ++j) {
        EXPECT_GE(est.stages[j].fwdStart, est.stages[j - 1].fwdStart);
        EXPECT_LE(est.stages[j].bwdEnd, est.stages[j - 1].bwdEnd);
    }
    EXPECT_GE(est.stages.back().bwdStart,
              est.stages.back().fwdEnd - 1e-12);
    EXPECT_GE(est.stepTime, est.stages.front().bwdEnd);
}

TEST_F(EvaluatorTest, OversizedStageInfeasible)
{
    ToyEnv *tight = makeToy(8, 2, 2, 1 * GiB);
    // One 8-layer stage needs ~1.6 GiB of weights alone.
    auto est = tight->eval.evaluate(uniformPartition(8, 2));
    EXPECT_FALSE(est.feasible);
    EXPECT_FALSE(est.infeasibleReason.empty());
    delete tight;
}

TEST_F(EvaluatorTest, MoreMemoryNeverHurts)
{
    ToyEnv *small = makeToy(8, 2, 2, 2 * GiB);
    ToyEnv *big = makeToy(8, 2, 2, 8 * GiB);
    Partition p = uniformPartition(8, 4);
    auto est_small = small->eval.evaluate(p);
    auto est_big = big->eval.evaluate(p);
    ASSERT_TRUE(est_small.feasible);
    ASSERT_TRUE(est_big.feasible);
    EXPECT_LE(est_big.stepTime, est_small.stepTime + 1e-12);
    delete small;
    delete big;
}

TEST_F(EvaluatorTest, PrefetchReportedWithinLimits)
{
    auto est = env_->eval.evaluate(uniformPartition(8, 8));
    ASSERT_TRUE(est.feasible);
    const auto &cm = env_->eval.cost();
    for (int j = 2; j < 8; ++j) {
        Bytes w = cm.rangeParamBytes(j, j + 1);
        EXPECT_LE(est.stages[j].prefetchedFwd, w);
    }
}

TEST_F(EvaluatorTest, CommBytesTracksParameters)
{
    auto est = env_->eval.evaluate(uniformPartition(8, 4));
    ASSERT_TRUE(est.feasible);
    Bytes fp16 = env_->eval.cost().model().totalParamBytesFp16();
    // At least weights once + most of them twice + grads.
    EXPECT_GT(est.commBytes, fp16);
    EXPECT_LT(est.commBytes,
              3 * fp16 + 100 * MiB * 8ULL * 4ULL);
}

TEST_F(EvaluatorTest, ResidentTailSkipsReload)
{
    // keepResidentTail=false must not be faster.
    ToyEnv *nores = makeToy(8, 2, 2, 4 * GiB);
    PipelineEnv env = nores->eval.env();
    env.keepResidentTail = false;
    PipelineCostEvaluator ev2(nores->eval.cost(), env);
    Partition p = uniformPartition(8, 4);
    auto with = env_->eval.evaluate(p);
    auto without = ev2.evaluate(p);
    EXPECT_LE(with.stepTime, without.stepTime + 1e-12);
    EXPECT_TRUE(with.stages[3].residentForBwd);
    EXPECT_FALSE(without.stages[3].residentForBwd);
    delete nores;
}

/** Bitwise equality of two doubles (distinguishes -0.0, NaNs). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/**
 * A random contiguous partition of @p layers whose stages hold
 * 1..@p max_stage layers each (the last stage takes what is left).
 */
Partition
randomPartition(Rng &rng, int layers, int max_stage)
{
    Partition p;
    for (int lo = 0; lo < layers;) {
        const int size = 1 + static_cast<int>(rng.below(
                                 static_cast<std::uint64_t>(max_stage)));
        const int hi = std::min(layers, lo + size);
        p.push_back(StageRange{lo, hi});
        lo = hi;
    }
    return p;
}

TEST(Evaluator, StageTableMatchesCostModelBitwise)
{
    // Every (lo, hi) entry must equal the CostModel's per-range loop
    // exactly; a change of summation order shows up here even where
    // the recurrence would round the difference away.
    for (const GptConfig &cfg :
         {gpt3b(), gpt8b(), gpt15b(), gpt51b()}) {
        const ModelDesc model = makeGptModel(cfg);
        const int L = model.numLayers();
        for (int mbs = 1; mbs <= 8; ++mbs) {
            TrainConfig tc;
            tc.microbatchSize = mbs;
            const CostModel cost(model, rtx3090Ti(), tc);
            const PipelineCostEvaluator eval(
                cost, PipelineEnv{4, rtx3090Ti().memBytes, 13.1e9, true});
            for (int lo = 0; lo < L; ++lo) {
                for (int hi = lo + 1; hi <= L; ++hi) {
                    const auto &c = eval.stageCosts(lo, hi);
                    ASSERT_TRUE(
                        c.w == cost.rangeParamBytes(lo, hi) &&
                        c.grad == cost.rangeGradBytes(lo, hi) &&
                        c.memF == cost.stageMemFwd(lo, hi) &&
                        c.memB == cost.stageMemBwd(lo, hi) &&
                        sameBits(c.tf, cost.rangeFwdTime(lo, hi)) &&
                        sameBits(c.tb, cost.rangeBwdTime(lo, hi)))
                        << cfg.name << " mbs=" << mbs << " [" << lo
                        << ", " << hi << ")";
                }
            }
        }
    }
}

TEST(Evaluator, TableDrivenMatchesPerRangeOracleBitwise)
{
    // Table 3 models on every commodity shape, 1-8 microbatches,
    // resident tail on and off: evaluate() must reproduce the
    // per-range-loop evaluator double for double, and score() its
    // step time (+inf exactly when infeasible).
    const std::vector<std::vector<int>> topos = {
        {2, 2}, {4}, {4, 4}, {2, 2, 2, 2}};
    Rng rng(16);
    int feasible = 0, infeasible = 0;
    for (const GptConfig &cfg :
         {gpt3b(), gpt8b(), gpt15b(), gpt51b()}) {
        const ModelDesc model = makeGptModel(cfg);
        const int L = model.numLayers();
        for (const auto &groups : topos) {
            const Server server = makeCommodityServer(groups);
            for (int mbs = 1; mbs <= 8; ++mbs) {
                TrainConfig tc;
                tc.microbatchSize = cfg.microbatchSize;
                tc.numMicrobatches = mbs;
                const CostModel cost(model, server.topo.gpuSpec(0), tc);
                for (bool tail : {true, false}) {
                    PipelineEnv env;
                    env.numGpus = server.topo.numGpus();
                    env.gpuMemBytes = server.topo.gpuSpec(0).memBytes;
                    env.keepResidentTail = tail;
                    const PipelineCostEvaluator eval(cost, env);
                    PipelineCostEvaluator::Workspace ws;
                    for (int k = 0; k < 12; ++k) {
                        // Odd draws keep stages small (mostly
                        // feasible), even draws allow any size
                        // (mostly memory-infeasible).
                        const int max_stage = 1 + static_cast<int>(
                            rng.below(k % 2 ? 8 : L));
                        const Partition p =
                            randomPartition(rng, L, max_stage);
                        const std::string what = cfg.name + " " +
                            partitionToString(p) + " M=" +
                            std::to_string(mbs) +
                            (tail ? " tail" : " no-tail");
                        const PipelineEstimate ref =
                            pipelineCostReference(eval, p);
                        const PipelineEstimate got = eval.evaluate(p);
                        ASSERT_EQ(got.feasible, ref.feasible) << what;
                        EXPECT_EQ(got.infeasibleReason,
                                  ref.infeasibleReason) << what;
                        EXPECT_TRUE(sameBits(got.stepTime, ref.stepTime))
                            << what;
                        EXPECT_EQ(got.commBytes, ref.commBytes) << what;
                        ASSERT_EQ(got.stages.size(), ref.stages.size());
                        for (std::size_t j = 0; j < ref.stages.size();
                             ++j) {
                            const StageSchedule &a = got.stages[j];
                            const StageSchedule &b = ref.stages[j];
                            EXPECT_TRUE(sameBits(a.fwdStart, b.fwdStart) &&
                                        sameBits(a.fwdEnd, b.fwdEnd) &&
                                        sameBits(a.bwdStart, b.bwdStart) &&
                                        sameBits(a.bwdEnd, b.bwdEnd) &&
                                        sameBits(a.fwdReady, b.fwdReady) &&
                                        sameBits(a.bwdReady, b.bwdReady))
                                << what << " stage " << j;
                            EXPECT_EQ(a.prefetchedFwd, b.prefetchedFwd);
                            EXPECT_EQ(a.prefetchedBwd, b.prefetchedBwd);
                            EXPECT_EQ(a.residentForBwd, b.residentForBwd);
                        }
                        const double t = eval.score(p, ws);
                        if (ref.feasible) {
                            ++feasible;
                            EXPECT_TRUE(sameBits(t, got.stepTime)) << what;
                        } else {
                            ++infeasible;
                            EXPECT_TRUE(std::isinf(t) && t > 0) << what;
                        }
                    }
                }
            }
        }
    }
    // The draw must exercise both branches of Eq. 4.
    EXPECT_GT(feasible, 100);
    EXPECT_GT(infeasible, 100);
}

TEST(Evaluator, HeuristicHandsBackItsScore)
{
    // The per-stage-count heuristic reports the step time of the
    // partition it returns, so callers need not score it again.
    ModelDesc m = makeGptModel(gpt15b());
    CostModel cost(m, rtx3090Ti(), TrainConfig{});
    PipelineCostEvaluator eval(
        cost, PipelineEnv{4, rtx3090Ti().memBytes, 13.1e9, true});
    int evaluated = 0;
    for (int s = 4; s <= m.numLayers(); s += 9) {
        double t = 0.0;
        Partition p = heuristicPartitionForStages(eval, s, &evaluated, &t);
        ASSERT_EQ(static_cast<int>(p.size()), s);
        PipelineEstimate est = eval.evaluate(p);
        if (est.feasible)
            EXPECT_TRUE(sameBits(t, est.stepTime)) << s;
        else
            EXPECT_TRUE(std::isinf(t)) << s;
    }
    EXPECT_GT(evaluated, 0);
}

TEST(PartitionAlgos, MipMatchesBruteForceOnToys)
{
    struct Case
    {
        int layers, gpus, microbatches;
        Bytes mem;
    };
    for (const Case &c : {Case{6, 2, 2, 2 * GiB},
                          Case{8, 2, 4, 2 * GiB},
                          Case{9, 3, 3, 1 * GiB},
                          Case{10, 2, 2, 1 * GiB}}) {
        std::unique_ptr<ToyEnv> t(
            makeToy(c.layers, c.gpus, c.microbatches, c.mem));
        auto brute = bruteForcePartition(t->eval);
        auto mip = mipPartition(t->eval);
        ASSERT_TRUE(mip.estimate.feasible);
        // The search must find the true optimum step time (partitions
        // may differ when tied).
        EXPECT_NEAR(mip.estimate.stepTime, brute.estimate.stepTime,
                    1e-9 + brute.estimate.stepTime * 1e-6)
            << "L=" << c.layers << " N=" << c.gpus;
        EXPECT_LT(mip.evaluated, brute.evaluated);
    }
}

TEST(PartitionAlgos, MinStageOneBlockPerStage)
{
    ModelDesc m = makeGptModel(gpt8b());
    TrainConfig tc;
    tc.microbatchSize = 2;
    CostModel cost(m, rtx3090Ti(), tc);
    PipelineCostEvaluator eval(
        cost, PipelineEnv{4, rtx3090Ti().memBytes, 13.1e9, true});
    auto r = minStagePartition(eval);
    // 40 blocks -> 40 stages; embedding/norm/head folded in.
    EXPECT_EQ(r.partition.size(), 40u);
    EXPECT_TRUE(partitionValid(r.partition, m.numLayers()));
    // First stage holds embedding + block0.
    EXPECT_EQ(r.partition.front().size(), 2);
    // Last stage holds block39 + norm + head.
    EXPECT_EQ(r.partition.back().size(), 3);
}

TEST(PartitionAlgos, MaxStageFillsMemory)
{
    ModelDesc m = makeGptModel(gpt15b());
    TrainConfig tc;
    tc.microbatchSize = 1;
    CostModel cost(m, rtx3090Ti(), tc);
    Bytes g = rtx3090Ti().memBytes;
    PipelineCostEvaluator eval(cost, PipelineEnv{4, g, 13.1e9, true});
    auto r = maxStagePartition(eval);
    EXPECT_TRUE(partitionValid(r.partition, m.numLayers()));
    for (std::size_t j = 0; j < r.partition.size(); ++j) {
        const auto &s = r.partition[j];
        EXPECT_LE(cost.stageMemBwd(s.lo, s.hi), g);
        // Maximality: the next layer would not have fit.
        if (s.hi < m.numLayers()) {
            EXPECT_TRUE(cost.stageMemFwd(s.lo, s.hi + 1) > g ||
                        cost.stageMemBwd(s.lo, s.hi + 1) > g);
        }
    }
}

TEST(PartitionAlgos, MipBeatsOrMatchesBaselines)
{
    // The §4.3 claim: MIP partition is never worse than either
    // baseline under the shared objective.
    for (auto cfg : {gpt8b(), gpt15b()}) {
        ModelDesc m = makeGptModel(cfg);
        TrainConfig tc;
        tc.microbatchSize = cfg.microbatchSize;
        CostModel cost(m, rtx3090Ti(), tc);
        PipelineCostEvaluator eval(
            cost,
            PipelineEnv{4, rtx3090Ti().memBytes, 13.1e9, true});
        auto mip = mipPartition(eval);
        auto mins = minStagePartition(eval);
        auto maxs = maxStagePartition(eval);
        ASSERT_TRUE(mip.estimate.feasible);
        if (mins.estimate.feasible) {
            EXPECT_LE(mip.estimate.stepTime,
                      mins.estimate.stepTime + 1e-9);
        }
        if (maxs.estimate.feasible) {
            EXPECT_LE(mip.estimate.stepTime,
                      maxs.estimate.stepTime + 1e-9);
        }
    }
}

TEST(PartitionMip, FaithfulMipAgreesWithBruteForce)
{
    // Small uniform model; evaluator without the resident-tail
    // optimisation (the literal Eq. 3-11 system reloads weights).
    std::unique_ptr<ToyEnv> t(makeToy(4, 2, 2, 2 * GiB));
    PipelineEnv env = t->eval.env();
    env.keepResidentTail = false;
    PipelineCostEvaluator eval(t->eval.cost(), env);

    auto brute = bruteForcePartition(eval);
    MipOptions opts;
    opts.maxNodes = 60000;
    auto exact = exactMipPartition(eval, 4, opts);
    ASSERT_TRUE(exact.solved);
    EXPECT_TRUE(partitionValid(exact.partition, 4));

    // The MIP can exploit schedule slack the greedy evaluator does
    // not (delaying a stage to lengthen a prefetch window), so its
    // makespan is at most the brute-force one, and close to it.
    EXPECT_LE(exact.objective, brute.estimate.stepTime + 1e-6);
    EXPECT_GT(exact.objective, brute.estimate.stepTime * 0.8);

    // And the evaluator agrees the decoded partition is good.
    auto est = eval.evaluate(exact.partition);
    ASSERT_TRUE(est.feasible);
    EXPECT_LE(est.stepTime, brute.estimate.stepTime * 1.1);
}

TEST(Mapping, ContentionDegreeHandComputed)
{
    Server s = makeCommodityServer({2, 2});
    // Sequential order, 4 stages: stages 0,1 on GPUs 0,1 (shared=2,
    // distance 1) and stages 2,3 on GPUs 2,3 -> degree 4.
    EXPECT_NEAR(contentionDegree(s.topo, {0, 1, 2, 3}, 4), 4.0,
                1e-12);
    // Alternating order: shared pairs at distance 2 -> degree 2.
    EXPECT_NEAR(contentionDegree(s.topo, {0, 2, 1, 3}, 4), 2.0,
                1e-12);
}

TEST(Mapping, CrossMappingBeatsSequentialOn22)
{
    Server s = makeCommodityServer({2, 2});
    const int stages = 8;
    Mapping seq = sequentialMapping(s.topo, stages);
    MappingResult cross = crossMapping(s.topo, stages);
    EXPECT_LT(cross.mapping.contention, seq.contention);
    EXPECT_EQ(cross.evaluated, 3); // ABAB, AABB, ABBA
    // Adjacent stages land under different root complexes.
    for (int j = 0; j + 1 < stages; ++j) {
        int a = cross.mapping.gpuOf(j);
        int b = cross.mapping.gpuOf(j + 1);
        EXPECT_EQ(s.topo.sharedRootComplexDegree(a, b), 0);
    }
}

TEST(Mapping, CrossMappingIndifferentOnTopo4)
{
    // All GPUs share one root complex: every order scores equally,
    // search returns the identity.
    Server s = makeCommodityServer({4});
    MappingResult cross = crossMapping(s.topo, 8);
    Mapping seq = sequentialMapping(s.topo, 8);
    EXPECT_NEAR(cross.mapping.contention, seq.contention, 1e-12);
    EXPECT_EQ(cross.mapping.gpuOrder, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Mapping, RoundRobinAssignment)
{
    Mapping m;
    m.gpuOrder = {2, 0, 3, 1};
    EXPECT_EQ(m.gpuOf(0), 2);
    EXPECT_EQ(m.gpuOf(3), 1);
    EXPECT_EQ(m.gpuOf(4), 2);
    EXPECT_EQ(m.gpuOf(7), 1);
}

TEST(PartitionAlgos, BalancedComputePartitionMinimisesMax)
{
    // DP result must match brute force on a small model.
    std::unique_ptr<ToyEnv> t(makeToy(9, 3, 2, 4 * GiB));
    const CostModel &cm = t->cost;
    for (int stages : {2, 3, 4}) {
        Partition p = balancedComputePartition(cm, stages);
        EXPECT_TRUE(partitionValid(p, 9));
        EXPECT_EQ(static_cast<int>(p.size()), stages);
        auto max_time = [&](const Partition &q) {
            double worst = 0;
            for (const auto &s : q) {
                worst = std::max(worst,
                                 cm.rangeFwdTime(s.lo, s.hi) +
                                     cm.rangeBwdTime(s.lo, s.hi));
            }
            return worst;
        };
        double dp = max_time(p);
        // Exhaustive check over all compositions with this count.
        double best = 1e100;
        std::vector<int> sizes(static_cast<std::size_t>(stages), 1);
        std::function<void(int, int)> rec = [&](int idx, int left) {
            if (idx == stages - 1) {
                sizes[idx] = left;
                best = std::min(best,
                                max_time(partitionFromSizes(sizes)));
                return;
            }
            for (int k = 1; left - k >= stages - idx - 1; ++k) {
                sizes[idx] = k;
                rec(idx + 1, left - k);
            }
        };
        rec(0, 9);
        EXPECT_NEAR(dp, best, best * 1e-9) << stages << " stages";
    }
}

TEST(PartitionAlgos, BalancedPartitionHandlesUnevenLayers)
{
    // GPT models have cheap edge layers; the DP should not give
    // them whole stages when blocks dominate.
    ModelDesc m = makeGptModel(gpt8b());
    CostModel cost(m, rtx3090Ti(), TrainConfig{});
    Partition p = balancedComputePartition(cost, 4);
    EXPECT_TRUE(partitionValid(p, m.numLayers()));
    double worst = 0, sum = 0;
    for (const auto &s : p) {
        double t = cost.rangeFwdTime(s.lo, s.hi) +
            cost.rangeBwdTime(s.lo, s.hi);
        worst = std::max(worst, t);
        sum += t;
    }
    // Near-perfect balance: worst stage within 15% of the mean.
    EXPECT_LT(worst, sum / 4 * 1.15);
}

TEST(Mapping, EightGpuCrossMappingImproves)
{
    Server s = makeCommodityServer({4, 4});
    const int stages = 16;
    Mapping seq = sequentialMapping(s.topo, stages);
    MappingResult cross = crossMapping(s.topo, stages);
    EXPECT_EQ(cross.evaluated, 35); // C(8,4) / 2
    EXPECT_LT(cross.mapping.contention, seq.contention * 0.9);
}

TEST(Mapping, CrossMappingScoresOneOrderPerClass)
{
    // Orders that differ only by GPUs swapped inside a root complex
    // or by equal-size root complexes swapped score alike, so the
    // search scores N! / (prod |g|! * prod m_k!) orders, with m_k
    // the number of root complexes of size k.
    struct Case
    {
        std::vector<int> groups;
        int classes;
    };
    const std::vector<Case> cases = {
        {{2, 2, 2, 2}, 105},                 // 8! / 2^4 / 4!
        {{1, 1, 1, 1, 1, 1, 1, 1}, 1},       // 8! / 8!
        {{1, 3, 4}, 280},                    // 8! / (3! 4!)
        {{4, 4, 4}, 5775},                   // 12! / 4!^3 / 3!
    };
    for (const Case &c : cases) {
        Server s = makeCommodityServer(c.groups);
        MappingResult cross = crossMapping(s.topo, 24);
        EXPECT_EQ(cross.evaluated, c.classes)
            << s.topo.numGpus() << " GPUs";
        EXPECT_EQ(cross.mapping.numGpus(), s.topo.numGpus());
    }
}

/** Every group vector of @p gpus GPUs with non-decreasing sizes. */
void
groupVectors(int gpus, int min_size, std::vector<int> &prefix,
             std::vector<std::vector<int>> &out)
{
    if (gpus == 0) {
        out.push_back(prefix);
        return;
    }
    for (int size = min_size; size <= gpus; ++size) {
        prefix.push_back(size);
        groupVectors(gpus - size, size, prefix, out);
        prefix.pop_back();
    }
}

/** A server whose GPU g sits under root complex @p rc_of[g]. */
Topology
interleavedTopology(const std::vector<int> &rc_of)
{
    Topology topo;
    const int rcs = *std::max_element(rc_of.begin(), rc_of.end()) + 1;
    std::vector<int> nodes;
    for (int rc = 0; rc < rcs; ++rc)
        nodes.push_back(topo.addRootComplex("rc" + std::to_string(rc),
                                            16e9));
    for (std::size_t g = 0; g < rc_of.size(); ++g)
        topo.addGpu(nodes[rc_of[g]], "gpu" + std::to_string(g), 16e9,
                    rtx3090Ti());
    return topo;
}

TEST(Mapping, CrossMappingMatchesExhaustiveOracle)
{
    // The oracle scores all N! orders, so a sweep costs N! * S^2:
    // S = 1..70 on 7 and 8 GPUs would take minutes. Those sizes run
    // three periods of an 8-GPU order instead; test_golden pins
    // larger S on 4+4, 2+2+2+2 and 1+3+4.
    std::vector<std::vector<int>> topologies;
    for (int gpus = 2; gpus <= 8; ++gpus) {
        std::vector<int> prefix;
        groupVectors(gpus, 1, prefix, topologies);
    }
    // The same sizes in other orders: the singleton or the small
    // root complex first and last.
    topologies.push_back({3, 1});
    topologies.push_back({6, 2});
    std::vector<std::pair<std::string, Topology>> servers;
    for (const std::vector<int> &groups : topologies) {
        std::string name = "groups";
        for (int g : groups)
            name += " " + std::to_string(g);
        servers.emplace_back(name, makeCommodityServer(groups).topo);
    }
    // Root complexes whose GPU indices interleave, so the next GPU
    // of one root complex can sit below or above that of another.
    for (const std::vector<int> &rc_of : std::vector<std::vector<int>>{
             {0, 1, 1, 0}, {1, 0, 0, 1, 0}, {0, 1, 2, 0, 1, 2},
             {2, 0, 1, 1, 0, 2}, {0, 1, 0, 2, 1, 3, 3, 2}}) {
        std::string name = "rc_of";
        for (int rc : rc_of)
            name += " " + std::to_string(rc);
        servers.emplace_back(name, interleavedTopology(rc_of));
    }
    for (const auto &[name, topo] : servers) {
        const int max_stages = topo.numGpus() <= 6 ? 70 : 24;
        for (int stages = 1; stages <= max_stages; ++stages) {
            MappingResult fast = crossMapping(topo, stages);
            MappingResult ref = crossMappingReference(topo, stages);
            const std::string what =
                name + ", S=" + std::to_string(stages);
            EXPECT_EQ(fast.mapping.gpuOrder, ref.mapping.gpuOrder)
                << what;
            EXPECT_EQ(std::memcmp(&fast.mapping.contention,
                                  &ref.mapping.contention,
                                  sizeof(double)),
                      0)
                << what;
            EXPECT_LE(fast.evaluated, ref.evaluated) << what;
        }
    }
}

} // namespace
} // namespace mobius
