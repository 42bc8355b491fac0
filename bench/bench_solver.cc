/**
 * @file
 * bench_solver — solver-stack speedup tracking (see ISSUE 2 and the
 * DESIGN solver section).
 *
 * Races the current solver (bounded-variable simplex, Dantzig
 * pricing, warm-started branch-and-bound, seeded incumbent) against
 * the pre-change solver (tests/oracles/lp_reference.hh driven by a
 * replica of the historical branch-and-bound loop) on faithful
 * Eq. 3-11 partition instances at three sizes, and emits
 * BENCH_solver.json so the gap is tracked across PRs.
 *
 * Usage: bench_solver [--quick] [--out FILE]
 *
 *   --quick   only the small instances (seconds; this is the tier-1
 *             ctest smoke). Exits nonzero when the current solver's
 *             pivot count is not at least 5x below the legacy
 *             solver's, or when their optimal objectives disagree.
 *   --out     JSON output path (default BENCH_solver.json in the
 *             working directory).
 *
 * Expected shape: equal objectives wherever both solvers prove
 * optimality, and a >= 5x pivot reduction (bounded variables remove
 * one row per boolean; warm starts make child nodes nearly free).
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "base/args.hh"
#include "base/logging.hh"
#include "bench_util.hh"
#include "hw/server.hh"
#include "plan/partition_algos.hh"
#include "plan/partition_mip.hh"
#include "oracles/lp_reference.hh"

using namespace mobius;

namespace
{

/** Uniform toy model: @p layers identical transformer blocks. */
ModelDesc
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

/** Owns the model/cost/evaluator chain (they hold pointers). */
struct Env
{
    Env(int layers, int gpus, int microbatches)
        : model(toyModel(layers)),
          cost(model, rtx3090Ti(),
               TrainConfig{1, microbatches, true, 0.45, 30e-6}),
          eval(cost, PipelineEnv{gpus, 4 * GiB, 13.1e9, true})
    {}

    ModelDesc model;
    CostModel cost;
    PipelineCostEvaluator eval;
};

/** What one solver produced on one instance. */
struct SolveStats
{
    std::string status;
    bool optimal = false;
    bool feasible = false;
    double objective = 0.0;
    std::uint64_t nodes = 0;
    std::uint64_t pivots = 0;
    std::uint64_t warm = 0;
    std::uint64_t cold = 0;
    double seconds = 0.0;
};

/**
 * The historical branch-and-bound loop: every node copies the LP and
 * solves it from scratch with the reference simplex. This is a
 * faithful replica of the pre-change solveMip() so the benchmark
 * compares whole solver stacks, not just single LPs.
 */
SolveStats
legacySolveMip(const MipProblem &problem, std::uint64_t max_nodes,
               std::uint64_t pivot_cap)
{
    struct Node
    {
        std::vector<double> lower;
        std::vector<double> upper;
    };
    constexpr double kIntTol = 1e-6;
    constexpr double kGapTol = 1e-9;

    SolveStats out;
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<Node> stack;
    stack.push_back(Node{problem.lp.lower, problem.lp.upper});
    bool have_incumbent = false;
    bool exhausted = true;
    bool pivot_limited = false;
    double best_obj = 0.0;

    while (!stack.empty()) {
        if (out.nodes >= max_nodes) {
            exhausted = false;
            break;
        }
        Node node = std::move(stack.back());
        stack.pop_back();
        ++out.nodes;

        LpProblem relax = problem.lp;
        relax.lower = node.lower;
        relax.upper = node.upper;
        // The total pivot budget (0 = unlimited) bounds the
        // otherwise hours-long Bland runs on the big instances; an
        // exhausted budget ends the run like an exhausted node cap.
        std::uint64_t lp_budget = 0;
        if (pivot_cap != 0)
            lp_budget = pivot_cap - out.pivots;
        LpSolution lp = solveLpReference(relax, lp_budget);
        out.pivots += lp.pivots;
        if (pivot_cap != 0 && out.pivots >= pivot_cap) {
            exhausted = false;
            pivot_limited = true;
            break;
        }

        if (lp.status != LpSolution::Status::Optimal)
            continue;
        if (have_incumbent && lp.objective >= best_obj - kGapTol)
            continue;

        int branch_var = -1;
        double branch_frac = 0.0;
        for (int j = 0; j < problem.lp.numVars; ++j) {
            if (!problem.integer[j])
                continue;
            double frac = lp.x[j] - std::floor(lp.x[j]);
            double dist = std::min(frac, 1.0 - frac);
            if (dist > kIntTol && dist > branch_frac) {
                branch_var = j;
                branch_frac = dist;
            }
        }
        if (branch_var < 0) {
            have_incumbent = true;
            best_obj = lp.objective;
            continue;
        }

        double fl = std::floor(lp.x[branch_var]);
        Node up = node;
        up.lower[branch_var] = fl + 1.0;
        if (up.lower[branch_var] <= up.upper[branch_var] + 1e-12)
            stack.push_back(std::move(up));
        Node down = std::move(node);
        down.upper[branch_var] = fl;
        if (down.lower[branch_var] <= down.upper[branch_var] + 1e-12)
            stack.push_back(std::move(down));
    }

    out.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    out.objective = best_obj;
    out.feasible = have_incumbent;
    out.optimal = have_incumbent && exhausted;
    out.status = have_incumbent
        ? (exhausted ? "optimal" : "feasible")
        : (exhausted ? "infeasible"
                     : (pivot_limited ? "pivot_limit"
                                      : "node_limit"));
    return out;
}

/** Run the production solver (seeded + warm-started) on @p problem. */
SolveStats
currentSolveMip(const MipProblem &problem, const Env &env, int stages,
                const std::vector<std::vector<int>> &b,
                std::uint64_t max_nodes)
{
    MipOptions mo;
    mo.maxNodes = max_nodes;
    Partition seed = heuristicPartitionForStages(env.eval, stages);
    mo.start.assign(static_cast<std::size_t>(problem.lp.numVars),
                    0.0);
    for (int j = 0; j < stages; ++j) {
        for (int i = seed[j].lo; i < seed[j].hi; ++i)
            mo.start[b[i][j]] = 1.0;
    }

    SolveStats out;
    const auto t0 = std::chrono::steady_clock::now();
    MipSolution sol = solveMip(problem, mo);
    out.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    out.status = mipStatusName(sol.status);
    out.optimal = sol.status == MipSolution::Status::Optimal;
    out.feasible = sol.ok();
    out.objective = sol.objective;
    out.nodes = sol.nodesExplored;
    out.pivots = sol.lpPivots;
    out.warm = sol.lpWarmSolves;
    out.cold = sol.lpColdSolves;
    return out;
}

/** One benchmark row: a partition MIP at a fixed stage count. */
struct Instance
{
    const char *name;
    int layers, gpus, stages, microbatches;
    std::uint64_t nodeCap; //!< node budget for BOTH solvers
    /** Total legacy pivot budget, 0 = unlimited. Bland on the
     * medium tableau needs ~5 ms/pivot and hundreds of thousands of
     * pivots, so an uncapped run takes hours; the cap truncates the
     * legacy pivot count and therefore *understates* the ratio. */
    std::uint64_t legacyPivotCap;
    bool runLegacy;        //!< legacy is hopeless at large sizes
    bool assertRatio;      //!< gate the >= 5x pivot criterion here
    bool quick;            //!< part of the --quick smoke set
};

void
jsonStats(std::string &json, const char *key, const SolveStats &s,
          bool with_warm)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"%s\":{\"status\":\"%s\",\"objective\":%.9g,"
                  "\"nodes\":%llu,\"pivots\":%llu,\"seconds\":%.4f",
                  key, s.status.c_str(), s.objective,
                  static_cast<unsigned long long>(s.nodes),
                  static_cast<unsigned long long>(s.pivots),
                  s.seconds);
    json += buf;
    if (with_warm) {
        std::snprintf(buf, sizeof(buf),
                      ",\"warm_solves\":%llu,\"cold_solves\":%llu",
                      static_cast<unsigned long long>(s.warm),
                      static_cast<unsigned long long>(s.cold));
        json += buf;
    }
    json += "}";
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Args args(argc, argv);
        bench::ProfScope prof_scope(args);
        const bool quick = args.has("quick");
        const std::string out_file =
            args.get("out", "BENCH_solver.json");
        args.rejectUnused();

        // Node caps: the small instances run both solvers under a
        // shared cap big enough to prove optimality; medium also
        // caps the legacy solver's total pivots (its from-scratch
        // Bland solves need ~5 ms/pivot there and would run for
        // hours — the cap truncates the measured ratio downward, so
        // the >= 5x check stays conservative); large drops the
        // legacy solver entirely.
        const std::vector<Instance> instances = {
            {"tiny-s2", 6, 2, 2, 2, 50000, 0, true, false, true},
            {"tiny-s3", 6, 2, 3, 2, 50000, 0, true, false, true},
            {"small", 12, 2, 4, 2, 300, 0, true, true, true},
            {"medium", 48, 4, 16, 4, 3, 30000, true, true, false},
            {"large", 96, 4, 24, 4, 60, 0, false, false, false},
        };

        int failures = 0;
        std::string json = "{\n  \"schema\": \"mobius-bench/1\",\n  \"quick\": ";
        json += quick ? "true" : "false";
        json += ",\n  \"instances\": [";
        bool first = true;

        std::printf("%-8s %5s %3s %3s | %10s %10s | %10s %10s | "
                    "%7s\n",
                    "instance", "L", "S", "M", "legacy-nds",
                    "legacy-piv", "cur-nds", "cur-piv", "ratio");
        for (const Instance &ins : instances) {
            if (quick && !ins.quick)
                continue;

            Env env(ins.layers, ins.gpus, ins.microbatches);
            std::vector<std::vector<int>> b;
            MipProblem p =
                buildPartitionMip(env.eval, ins.stages, &b);

            SolveStats cur = currentSolveMip(p, env, ins.stages, b,
                                             ins.nodeCap);
            SolveStats leg;
            if (ins.runLegacy)
                leg = legacySolveMip(p, ins.nodeCap,
                                     ins.legacyPivotCap);

            double ratio = 0.0;
            if (ins.runLegacy && cur.pivots > 0) {
                ratio = static_cast<double>(leg.pivots) /
                    static_cast<double>(cur.pivots);
            }

            std::printf("%-8s %5d %3d %3d | ", ins.name, ins.layers,
                        ins.stages, ins.microbatches);
            if (ins.runLegacy) {
                std::printf("%10llu %10llu | ",
                            static_cast<unsigned long long>(
                                leg.nodes),
                            static_cast<unsigned long long>(
                                leg.pivots));
            } else {
                std::printf("%10s %10s | ", "-", "-");
            }
            std::printf("%10llu %10llu | ",
                        static_cast<unsigned long long>(cur.nodes),
                        static_cast<unsigned long long>(cur.pivots));
            if (ins.runLegacy)
                std::printf("%6.1fx\n", ratio);
            else
                std::printf("%7s\n", "-");

            // Checks: identical optimal objectives, and the >= 5x
            // pivot criterion where the instance gates it.
            if (ins.runLegacy && leg.optimal && cur.optimal) {
                double tol =
                    1e-6 * std::max(1.0, std::fabs(leg.objective));
                if (std::fabs(leg.objective - cur.objective) > tol) {
                    std::printf("  FAIL %s: objectives differ "
                                "(legacy %.9g vs current %.9g)\n",
                                ins.name, leg.objective,
                                cur.objective);
                    ++failures;
                }
            }
            if (ins.assertRatio && ratio < 5.0) {
                std::printf("  FAIL %s: pivot ratio %.2fx < 5x\n",
                            ins.name, ratio);
                ++failures;
            }

            if (!first)
                json += ",";
            first = false;
            char buf[256];
            std::snprintf(
                buf, sizeof(buf),
                "\n    {\"name\":\"%s\",\"layers\":%d,\"gpus\":%d,"
                "\"stages\":%d,\"microbatches\":%d,\"vars\":%d,"
                "\"rows\":%zu,\"node_cap\":%llu,",
                ins.name, ins.layers, ins.gpus, ins.stages,
                ins.microbatches, p.lp.numVars, p.lp.rows.size(),
                static_cast<unsigned long long>(ins.nodeCap));
            json += buf;
            if (ins.runLegacy) {
                jsonStats(json, "legacy", leg, false);
                json += ",";
            } else {
                json += "\"legacy\":null,";
            }
            jsonStats(json, "current", cur, true);
            if (ins.runLegacy) {
                std::snprintf(buf, sizeof(buf),
                              ",\"pivot_ratio\":%.3f", ratio);
                json += buf;
            } else {
                json += ",\"pivot_ratio\":null";
            }
            json += "}";
        }
        char buf[64];
        std::snprintf(buf, sizeof(buf),
                      "\n  ],\n  \"failures\": %d\n}\n", failures);
        json += buf;

        std::ofstream os(out_file);
        os << json;
        if (!os)
            fatal("cannot write '%s'", out_file.c_str());
        std::printf("\nwrote %s (%d check failure%s)\n",
                    out_file.c_str(), failures,
                    failures == 1 ? "" : "s");
        return failures == 0 ? 0 : 1;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
