/**
 * @file
 * Unit tests for the simplex LP solver and the branch-and-bound MIP:
 * textbook instances, randomized fuzz against the frozen reference
 * implementation (tests/oracles/lp_reference.hh), warm-start equivalence, and
 * thread-count determinism of the exact partition sweep.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "base/rng.hh"
#include "hw/server.hh"
#include "plan/partition_algos.hh"
#include "plan/partition_mip.hh"
#include "plan/pipeline_cost.hh"
#include "solver/lp.hh"
#include "oracles/lp_reference.hh"
#include "solver/mip.hh"

namespace mobius
{
namespace
{

TEST(Lp, TextbookMaximisation)
{
    // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  => (2, 6), 36.
    LpProblem p;
    int x = p.addVar(-3.0);
    int y = p.addVar(-5.0);
    p.addRow({{x, 1.0}}, Sense::Le, 4.0);
    p.addRow({{y, 2.0}}, Sense::Le, 12.0);
    p.addRow({{x, 3.0}, {y, 2.0}}, Sense::Le, 18.0);
    auto sol = solveLp(p);
    ASSERT_TRUE(sol.ok());
    EXPECT_NEAR(sol.objective, -36.0, 1e-6);
    EXPECT_NEAR(sol.x[x], 2.0, 1e-6);
    EXPECT_NEAR(sol.x[y], 6.0, 1e-6);
}

TEST(Lp, GreaterEqualAndEquality)
{
    // min 2x + 3y s.t. x + y = 10, x >= 4: substituting y = 10 - x
    // gives 30 - x, so x is pushed to 10 and the optimum is 20.
    LpProblem p;
    int x = p.addVar(2.0);
    int y = p.addVar(3.0);
    p.addRow({{x, 1.0}, {y, 1.0}}, Sense::Eq, 10.0);
    p.addRow({{x, 1.0}}, Sense::Ge, 4.0);
    auto sol = solveLp(p);
    ASSERT_TRUE(sol.ok());
    EXPECT_NEAR(sol.objective, 20.0, 1e-6);
    EXPECT_NEAR(sol.x[x], 10.0, 1e-6); // x as large as possible
    EXPECT_NEAR(sol.x[y], 0.0, 1e-6);
}

TEST(Lp, InfeasibleDetected)
{
    LpProblem p;
    int x = p.addVar(1.0);
    p.addRow({{x, 1.0}}, Sense::Ge, 5.0);
    p.addRow({{x, 1.0}}, Sense::Le, 3.0);
    auto sol = solveLp(p);
    EXPECT_EQ(sol.status, LpSolution::Status::Infeasible);
}

TEST(Lp, UnboundedDetected)
{
    LpProblem p;
    int x = p.addVar(-1.0); // maximise x with no constraint
    (void)x;
    auto sol = solveLp(p);
    EXPECT_EQ(sol.status, LpSolution::Status::Unbounded);
}

TEST(Lp, VariableBoundsRespected)
{
    LpProblem p;
    int x = p.addVar(-1.0, 1.0, 7.0); // min -x, 1 <= x <= 7
    auto sol = solveLp(p);
    ASSERT_TRUE(sol.ok());
    EXPECT_NEAR(sol.x[x], 7.0, 1e-6);
    EXPECT_NEAR(sol.objective, -7.0, 1e-6);
}

TEST(Lp, FreeVariableHandled)
{
    // min x s.t. x >= -5 with x free below: x = -5 via a row.
    LpProblem p;
    int x = p.addVar(1.0, -kLpInf, kLpInf);
    p.addRow({{x, 1.0}}, Sense::Ge, -5.0);
    auto sol = solveLp(p);
    ASSERT_TRUE(sol.ok());
    EXPECT_NEAR(sol.x[x], -5.0, 1e-6);
}

TEST(Lp, DegenerateProblemTerminates)
{
    // Classic degeneracy; Bland's rule must terminate.
    LpProblem p;
    int x1 = p.addVar(-0.75);
    int x2 = p.addVar(150.0);
    int x3 = p.addVar(-0.02);
    int x4 = p.addVar(6.0);
    p.addRow({{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}},
             Sense::Le, 0.0);
    p.addRow({{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}},
             Sense::Le, 0.0);
    p.addRow({{x3, 1.0}}, Sense::Le, 1.0);
    auto sol = solveLp(p);
    ASSERT_TRUE(sol.ok());
    EXPECT_NEAR(sol.objective, -0.05, 1e-6);
}

TEST(Lp, EqualityWithNegativeRhs)
{
    LpProblem p;
    int x = p.addVar(1.0, -kLpInf, kLpInf);
    p.addRow({{x, 1.0}}, Sense::Eq, -4.0);
    auto sol = solveLp(p);
    ASSERT_TRUE(sol.ok());
    EXPECT_NEAR(sol.x[x], -4.0, 1e-6);
}

TEST(Mip, KnapsackSmall)
{
    // max 10a + 13b + 7c, 3a + 4b + 2c <= 6, binary  => a+c = 17? vs
    // b+c = 20 (weight 6). Optimal: b + c = 20.
    MipProblem p;
    int a = p.addBoolVar(-10.0);
    int b = p.addBoolVar(-13.0);
    int c = p.addBoolVar(-7.0);
    p.lp.addRow({{a, 3.0}, {b, 4.0}, {c, 2.0}}, Sense::Le, 6.0);
    auto sol = solveMip(p);
    ASSERT_EQ(sol.status, MipSolution::Status::Optimal);
    EXPECT_NEAR(sol.objective, -20.0, 1e-6);
    EXPECT_NEAR(sol.x[a], 0.0, 1e-6);
    EXPECT_NEAR(sol.x[b], 1.0, 1e-6);
    EXPECT_NEAR(sol.x[c], 1.0, 1e-6);
}

TEST(Mip, IntegerRounding)
{
    // min -x, x <= 3.7, x integer => 3.
    MipProblem p;
    int x = p.addIntVar(-1.0, 0.0, 100.0);
    p.lp.addRow({{x, 1.0}}, Sense::Le, 3.7);
    auto sol = solveMip(p);
    ASSERT_TRUE(sol.ok());
    EXPECT_NEAR(sol.x[x], 3.0, 1e-9);
}

TEST(Mip, AssignmentProblem)
{
    // 3x3 assignment, cost matrix; optimal = 5 (1 + 3 + 1).
    const double cost[3][3] = {{4, 1, 3}, {2, 0, 5}, {3, 2, 1}};
    MipProblem p;
    int v[3][3];
    for (int i = 0; i < 3; ++i) {
        for (int j = 0; j < 3; ++j)
            v[i][j] = p.addBoolVar(cost[i][j]);
    }
    for (int i = 0; i < 3; ++i) {
        std::vector<std::pair<int, double>> row, col;
        for (int j = 0; j < 3; ++j) {
            row.push_back({v[i][j], 1.0});
            col.push_back({v[j][i], 1.0});
        }
        p.lp.addRow(row, Sense::Eq, 1.0);
        p.lp.addRow(col, Sense::Eq, 1.0);
    }
    auto sol = solveMip(p);
    ASSERT_EQ(sol.status, MipSolution::Status::Optimal);
    EXPECT_NEAR(sol.objective, 4.0, 1e-6); // 1 + 2 + 1
}

TEST(Mip, MixedContinuousAndInteger)
{
    // min y s.t. y >= 1.5 n, n >= 2, n integer; y continuous.
    MipProblem p;
    int n = p.addIntVar(0.0, 0.0, 10.0);
    int y = p.addVar(1.0);
    p.lp.addRow({{y, 1.0}, {n, -1.5}}, Sense::Ge, 0.0);
    p.lp.addRow({{n, 1.0}}, Sense::Ge, 2.0);
    auto sol = solveMip(p);
    ASSERT_TRUE(sol.ok());
    EXPECT_NEAR(sol.x[n], 2.0, 1e-9);
    EXPECT_NEAR(sol.x[y], 3.0, 1e-6);
}

TEST(Mip, InfeasibleIntegerBox)
{
    // 0.4 <= x <= 0.6, x integer: no integer point.
    MipProblem p;
    int x = p.addIntVar(1.0, 0.4, 0.6);
    (void)x;
    auto sol = solveMip(p);
    EXPECT_EQ(sol.status, MipSolution::Status::Infeasible);
}

TEST(Mip, RandomKnapsacksMatchBruteForce)
{
    // Property: B&B equals exhaustive enumeration on random 0/1
    // knapsacks.
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        Rng rng(seed);
        const int n = 8;
        std::vector<double> value(n), weight(n);
        for (int i = 0; i < n; ++i) {
            value[i] = 1.0 + static_cast<double>(rng.below(20));
            weight[i] = 1.0 + static_cast<double>(rng.below(10));
        }
        double cap = 15.0;

        MipProblem p;
        std::vector<std::pair<int, double>> row;
        for (int i = 0; i < n; ++i) {
            int v = p.addBoolVar(-value[i]);
            row.push_back({v, weight[i]});
        }
        p.lp.addRow(row, Sense::Le, cap);
        auto sol = solveMip(p);
        ASSERT_TRUE(sol.ok());

        double best = 0.0;
        for (int mask = 0; mask < (1 << n); ++mask) {
            double tv = 0, tw = 0;
            for (int i = 0; i < n; ++i) {
                if (mask & (1 << i)) {
                    tv += value[i];
                    tw += weight[i];
                }
            }
            if (tw <= cap)
                best = std::max(best, tv);
        }
        EXPECT_NEAR(-sol.objective, best, 1e-6) << "seed " << seed;
    }
}

/** Random box-bounded LP used by the fuzz tests below. */
LpProblem
randomBoundedLp(Rng &rng)
{
    LpProblem p;
    int n = 2 + static_cast<int>(rng.below(6));
    for (int i = 0; i < n; ++i) {
        double lo = rng.uniform(-4.0, 0.0);
        double up = rng.uniform(0.5, 8.0);
        p.addVar(rng.uniform(-10.0, 10.0), lo, up);
    }
    int m = 1 + static_cast<int>(rng.below(7));
    for (int r = 0; r < m; ++r) {
        int k = 1 + static_cast<int>(rng.below(n));
        std::vector<std::pair<int, double>> terms;
        for (int t = 0; t < k; ++t)
            terms.push_back({static_cast<int>(rng.below(n)),
                             rng.uniform(-5.0, 5.0)});
        Sense sense = rng.below(4) == 0
                          ? Sense::Eq
                          : (rng.below(2) == 0 ? Sense::Le
                                               : Sense::Ge);
        p.addRow(terms, sense, rng.uniform(-10.0, 10.0));
    }
    return p;
}

TEST(Lp, FuzzMatchesReference)
{
    // Property: the bounded-variable simplex agrees with the frozen
    // reference implementation (Bland + bound rows + big-M) on
    // status and optimal objective for random box-bounded LPs.
    for (std::uint64_t seed = 0; seed < 100; ++seed) {
        Rng rng(seed);
        LpProblem p = randomBoundedLp(rng);
        auto cur = solveLp(p);
        auto ref = solveLpReference(p);
        ASSERT_EQ(cur.status, ref.status) << "seed " << seed;
        if (cur.ok()) {
            double tol =
                1e-5 * std::max(1.0, std::abs(ref.objective));
            EXPECT_NEAR(cur.objective, ref.objective, tol)
                << "seed " << seed;
        }
    }
}

TEST(Lp, WarmMatchesColdAfterBoundChanges)
{
    // Property: after arbitrary bound tightenings the dual-simplex
    // warm restart reaches the same optimum as a from-scratch solve.
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
        Rng rng(seed);
        LpProblem p = randomBoundedLp(rng);
        int n = p.numVars;
        BoundedSimplex warm(p);
        (void)warm.solveCold();
        std::vector<double> lo = p.lower, up = p.upper;
        for (int step = 0; step < 8; ++step) {
            int j = static_cast<int>(rng.below(n));
            if (rng.below(2) == 0)
                lo[j] = rng.uniform(lo[j], up[j]);
            else
                up[j] = rng.uniform(lo[j], up[j]);
            warm.setBounds(lo, up);
            auto ws = warm.solveWarm();

            LpProblem q = p;
            q.lower = lo;
            q.upper = up;
            auto cs = solveLp(q);
            ASSERT_EQ(ws.status, cs.status)
                << "seed " << seed << " step " << step;
            if (ws.ok()) {
                double tol =
                    1e-5 * std::max(1.0, std::abs(cs.objective));
                EXPECT_NEAR(ws.objective, cs.objective, tol)
                    << "seed " << seed << " step " << step;
            }
        }
    }
}

TEST(Mip, FuzzWarmEqualsColdSearch)
{
    // Property: warm-started B&B and cold-started B&B prove the same
    // status and optimal objective on random bounded MIPs.
    for (std::uint64_t seed = 100; seed < 140; ++seed) {
        Rng rng(seed);
        MipProblem p;
        p.lp = randomBoundedLp(rng);
        int n = p.lp.numVars;
        p.integer.assign(static_cast<std::size_t>(n), false);
        for (int j = 0; j < n; ++j)
            p.integer[static_cast<std::size_t>(j)] =
                rng.below(2) == 0;
        MipOptions warm_opts;
        MipOptions cold_opts;
        cold_opts.warmStart = false;
        auto ws = solveMip(p, warm_opts);
        auto cs = solveMip(p, cold_opts);
        ASSERT_EQ(ws.status, cs.status) << "seed " << seed;
        if (ws.ok()) {
            double tol =
                1e-5 * std::max(1.0, std::abs(cs.objective));
            EXPECT_NEAR(ws.objective, cs.objective, tol)
                << "seed " << seed;
        }
    }
}

TEST(Mip, NodeLimitDistinctFromInfeasible)
{
    // A fractional root with a one-node budget exhausts the search
    // before any incumbent exists: that is NodeLimit, not the
    // Infeasible the pre-fix dead conditional used to report.
    MipProblem p;
    int a = p.addBoolVar(-10.0);
    int b = p.addBoolVar(-13.0);
    int c = p.addBoolVar(-7.0);
    p.lp.addRow({{a, 3.0}, {b, 4.0}, {c, 2.0}}, Sense::Le, 6.0);
    MipOptions opts;
    opts.warmStart = false;
    opts.maxNodes = 1;
    auto sol = solveMip(p, opts);
    EXPECT_EQ(sol.status, MipSolution::Status::NodeLimit);
    EXPECT_FALSE(sol.ok());

    // Sanity: an adequate budget proves the optimum on the same
    // instance, so the limit really was the only obstacle.
    opts.maxNodes = 100000;
    auto full = solveMip(p, opts);
    EXPECT_EQ(full.status, MipSolution::Status::Optimal);
}

TEST(Mip, StartSeedsIncumbent)
{
    MipProblem p;
    int a = p.addBoolVar(-10.0);
    int b = p.addBoolVar(-13.0);
    int c = p.addBoolVar(-7.0);
    p.lp.addRow({{a, 3.0}, {b, 4.0}, {c, 2.0}}, Sense::Le, 6.0);

    // Seeding the known optimum must not change the proved result.
    MipOptions opts;
    opts.start = {0.0, 1.0, 1.0};
    auto sol = solveMip(p, opts);
    ASSERT_EQ(sol.status, MipSolution::Status::Optimal);
    EXPECT_NEAR(sol.objective, -20.0, 1e-6);

    // Under a budget too small to finish the proof, the seed still
    // guarantees a Feasible incumbent at the seeded objective.
    opts.maxNodes = 1;
    auto seeded = solveMip(p, opts);
    ASSERT_TRUE(seeded.ok());
    EXPECT_EQ(seeded.status, MipSolution::Status::Feasible);
    EXPECT_NEAR(seeded.objective, -20.0, 1e-6);
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

    /** Uniform toy model: @p layers identical transformer blocks. */
    static ModelDesc
    toyModel(int layers)
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
            l.paramCount = 100'000'000;
            l.fwdFlopsPerSample = 3e12;
            l.actBytesPerSample = 8 * MiB;
            l.workBytesPerSample = 32 * MiB;
            l.similarityClass = 0;
            m.layers.push_back(l);
        }
        return m;
    }

    ModelDesc model;
    CostModel cost;
    PipelineCostEvaluator eval;
};

TEST(MipPartition, ThreadCountDoesNotChangeResult)
{
    // The parallel stage-count sweep must reduce deterministically:
    // any worker count returns the bit-identical partition, node
    // count, seeding-evaluation count and objective.
    ToyEnv env(8, 2, 2, 4 * GiB);
    MipOptions base;
    base.maxNodes = 60000;

    MipOptions one = base;
    one.threads = 1;
    auto r1 = exactMipPartition(env.eval, 4, one);
    ASSERT_TRUE(r1.solved);
    EXPECT_GT(r1.evaluated, 0);

    for (int threads : {2, 4}) {
        MipOptions many = base;
        many.threads = threads;
        auto rn = exactMipPartition(env.eval, 4, many);
        ASSERT_TRUE(rn.solved) << "threads " << threads;
        EXPECT_EQ(partitionToString(r1.partition),
                  partitionToString(rn.partition))
            << "threads " << threads;
        EXPECT_EQ(r1.objective, rn.objective)
            << "threads " << threads;
        EXPECT_EQ(r1.nodes, rn.nodes) << "threads " << threads;
        EXPECT_EQ(r1.evaluated, rn.evaluated)
            << "threads " << threads;
    }
}

TEST(MipPartition, WarmStartMatchesColdPartition)
{
    // The warm-started, seeded solve must pick the same partition as
    // a cold, unseeded one -- warm restarts change the path, never
    // the optimum.
    ToyEnv env(8, 2, 2, 4 * GiB);
    MipOptions warm;
    warm.maxNodes = 60000;
    MipOptions cold = warm;
    cold.warmStart = false;
    auto rw = exactMipPartition(env.eval, 4, warm);
    auto rc = exactMipPartition(env.eval, 4, cold);
    ASSERT_TRUE(rw.solved);
    ASSERT_TRUE(rc.solved);
    EXPECT_EQ(partitionToString(rw.partition),
              partitionToString(rc.partition));
    EXPECT_NEAR(rw.objective, rc.objective, 1e-9);
    EXPECT_GT(rw.lpWarmSolves, 0u);
}

} // namespace
} // namespace mobius
