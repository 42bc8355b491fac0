/**
 * @file
 * bench_whatif — bandwidth-sensitivity curves via the what-if
 * profiler, validated point-by-point against ground-truth
 * re-simulation (see EXPERIMENTS.md "BENCH_whatif.json").
 *
 * For Mobius and the DeepSpeed (ZeRO-3 + hetero memory) baseline,
 * sweeps the rc0 root-complex uplink bandwidth over [0.75x, 2x],
 * predicts each counterfactual step time from the completed-span DAG
 * (obs/whatif.hh), then re-simulates with the actually-perturbed
 * server — same plan, different link capacity — and records the
 * drift between the two.
 *
 * Usage: bench_whatif [--quick] [--out FILE] [--threads N]
 *
 *   --quick   GPT-8B on the 2+2 server only (this is the tier-1
 *             ctest smoke). Exits nonzero when any sweep point's
 *             DAG-predicted step time drifts more than 5% from the
 *             re-simulated truth, or when ZeRO's bandwidth
 *             sensitivity is not strictly steeper than Mobius's.
 *   --out     JSON output path (default BENCH_whatif.json in the
 *             working directory).
 *   --threads worker threads for the curve sweep (0 = hardware
 *             concurrency, the default). Each (model, topo, system)
 *             curve is an independent replica dispatched through
 *             JobPump::runAll (simcore/job_pump.hh); results land in
 *             per-curve slots and are reduced in curve order, so the
 *             output is bit-identical at any thread count.
 *
 * Expected shape: ZeRO is bandwidth-bound (every layer's parameters
 * cross the root complex every microbatch), so its step time rises
 * steeply as rc0 slows; Mobius overlaps transfers behind compute, so
 * its curve is flatter. That gap — sensitivity(ZeRO) strictly above
 * sensitivity(Mobius) — is the paper's overlap claim restated as a
 * counterfactual.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "base/args.hh"
#include "bench_util.hh"
#include "obs/whatif.hh"

using namespace mobius;

namespace
{

/** Tier-1 gate: DAG prediction vs re-simulated truth, per point. */
constexpr double kMaxDrift = 0.05;

/**
 * Full-tier gate for slowdown points (factor < 1). A counterfactual
 * slowdown creates contention between transfers that never
 * overlapped in the baseline trace, which no rescaling of recorded
 * stretch can express; the model's error bar plus the exact
 * re-simulation workflow exist precisely to audit this. Speedup
 * points stay under the strict kMaxDrift everywhere.
 */
constexpr double kMaxSlowdownDrift = 0.15;

/** One (model, topo, system) sensitivity curve. */
struct CurveResult
{
    std::string model;
    std::string topo;
    std::string system; //!< "mobius" | "deepspeed"
    double baseStepTime = 0.0;
    WhatIfSweep sweep;  //!< every point carries exact + drift

    double
    maxDrift() const
    {
        double d = 0.0;
        for (const WhatIfResult &p : sweep.points)
            d = std::max(d, p.drift());
        return d;
    }
};

/** The swept resource: rc0's DRAM uplink, 0.75x .. 2x, 6 points. */
WhatIfSweepSpec
rcSweepSpec()
{
    WhatIfSweepSpec spec;
    spec.resource = "rc0";
    spec.lo = 0.75;
    spec.hi = 2.0;
    spec.steps = 6;
    return spec;
}

CurveResult
runCurve(const GptConfig &cfg, const std::vector<int> &groups,
         const std::string &topo_name, const std::string &system)
{
    CurveResult r;
    r.model = cfg.name;
    r.topo = topo_name;
    r.system = system;

    Server server = makeCommodityServer(groups);
    Workload work(cfg, server);
    MobiusPlan plan;
    if (system == "mobius")
        plan = planMobius(server, work.cost());

    // The plan is computed once on the baseline server and held
    // fixed across every re-run: the counterfactual isolates the
    // hardware change, not the planner's reaction to it.
    auto stepOn = [&](const Server &srv,
                      const RunPerturbation &rp,
                      SpanDag *dag_out) {
        TraceRecorder trace;
        StepRunOptions opts;
        opts.perturb = rp;
        opts.traceOut = dag_out ? &trace : nullptr;
        StepStats stats = system == "mobius"
            ? runMobiusStepEx(srv, work.cost(), plan, opts).stats
            : runZeroStepEx(srv, work.cost(), opts).stats;
        if (dag_out)
            *dag_out = buildSpanDag(trace);
        return stats.stepTime;
    };

    SpanDag dag;
    r.baseStepTime = stepOn(server, {}, &dag);
    r.sweep = sweepWhatIf(dag, server, rcSweepSpec());
    for (WhatIfResult &p : r.sweep.points) {
        Server perturbed = perturbServer(server, p.specs);
        RunPerturbation rp =
            runPerturbation(p.specs, server.topo.numGpus());
        p.exact = stepOn(perturbed, rp, nullptr);
    }
    return r;
}

void
printCurve(const CurveResult &r)
{
    std::printf("\n  %s / %s / %s: base %.3fs, sensitivity %.3f, "
                "max drift %.2f%%\n",
                r.model.c_str(), r.topo.c_str(), r.system.c_str(),
                r.baseStepTime, r.sweep.sensitivity(),
                100 * r.maxDrift());
    std::printf("    %7s %12s %12s %8s\n", "factor", "predicted",
                "exact", "drift");
    for (const WhatIfResult &p : r.sweep.points) {
        std::printf("    %7.3f %11.4fs %11.4fs %7.2f%%\n",
                    p.specs.front().factor, p.predicted, p.exact,
                    100 * p.drift());
    }
}

std::string
curveJson(const CurveResult &r)
{
    std::string json = "{\"model\":\"" + r.model + "\"";
    json += ",\"topo\":\"" + r.topo + "\"";
    json += ",\"system\":\"" + r.system + "\"";
    json += strfmt(",\"base_step_time\":%.17g", r.baseStepTime);
    json += strfmt(",\"max_drift\":%.17g", r.maxDrift());
    json += ",\"sweep\":" + whatIfSweepJson(r.sweep);
    json += "}";
    return json;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Args args(argc, argv);
        bench::ProfScope prof_scope(args);
        const bool quick = args.has("quick");
        const std::string out = args.get("out", "BENCH_whatif.json");
        const int threads = bench::threadsArg(args);
        args.rejectUnused();

        bench::section("What-if: rc0 bandwidth sensitivity, "
                       "predicted vs re-simulated");

        struct Config
        {
            GptConfig model;
            std::vector<int> groups;
            std::string topo;
        };
        std::vector<Config> configs = {{gpt8b(), {2, 2}, "2+2"}};
        if (!quick) {
            configs.push_back({gpt8b(), {4, 4}, "4+4"});
            configs.push_back({gpt15b(), {2, 2}, "2+2"});
            configs.push_back({gpt15b(), {4, 4}, "4+4"});
        }

        // One replica per (model, topo, system) curve: independent
        // simulations, per-slot results, printed and reduced in job
        // order after the join (bit-identical at any thread count).
        struct Job
        {
            Config config;
            std::string system;
        };
        std::vector<Job> jobs;
        for (const Config &c : configs)
            for (const char *system : {"mobius", "deepspeed"})
                jobs.push_back({c, system});

        std::vector<CurveResult> curves(jobs.size());
        bench::runParallel(jobs.size(), threads, "curves",
                           [&](int i) {
                               const Job &j = jobs
                                   [static_cast<std::size_t>(i)];
                               curves[static_cast<std::size_t>(i)] =
                                   runCurve(j.config.model,
                                            j.config.groups,
                                            j.config.topo,
                                            j.system);
                           });
        for (const CurveResult &r : curves)
            printCurve(r);

        // Quick tier (the ctest smoke): every point must hold the
        // strict tolerance. Full tier: speedup points stay strict;
        // slowdown points get kMaxSlowdownDrift (see above).
        double max_drift = 0.0;
        bool drift_ok = true;
        for (const CurveResult &r : curves) {
            max_drift = std::max(max_drift, r.maxDrift());
            for (const WhatIfResult &p : r.sweep.points) {
                double limit = !quick &&
                        p.specs.front().factor < 1.0
                    ? kMaxSlowdownDrift
                    : kMaxDrift;
                drift_ok = drift_ok && p.drift() <= limit;
            }
        }

        // The overlap claim, counterfactually: on GPT-8B 2+2, ZeRO
        // must be strictly more sensitive to rc0 bandwidth.
        double sens_mobius = 0.0, sens_zero = 0.0;
        for (const CurveResult &r : curves) {
            if (r.model == gpt8b().name && r.topo == "2+2") {
                if (r.system == "mobius")
                    sens_mobius = r.sweep.sensitivity();
                else
                    sens_zero = r.sweep.sensitivity();
            }
        }
        bool zero_steeper = sens_zero > sens_mobius;

        std::printf("\n  max drift over all points (speedups <= "
                    "%.0f%%, full-tier slowdowns <= %.0f%%): "
                    "%.2f%% %s\n",
                    100 * kMaxDrift, 100 * kMaxSlowdownDrift,
                    100 * max_drift, drift_ok ? "ok" : "FAIL");
        std::printf("  ZeRO steeper than Mobius (8B, 2+2): "
                    "%.3f vs %.3f %s\n",
                    sens_zero, sens_mobius,
                    zero_steeper ? "ok" : "FAIL");

        std::string json = "{\n  \"schema\": \"mobius-bench/1\",\n  \"quick\": ";
        json += quick ? "true" : "false";
        json += strfmt(",\n  \"max_drift_tolerance\": %g",
                       kMaxDrift);
        json += strfmt(",\n  \"max_drift\": %.17g", max_drift);
        json += ",\n  \"drift_ok\": ";
        json += drift_ok ? "true" : "false";
        json += strfmt(",\n  \"sensitivity_mobius_8b_2p2\": %.17g",
                       sens_mobius);
        json += strfmt(",\n  \"sensitivity_zero_8b_2p2\": %.17g",
                       sens_zero);
        json += ",\n  \"zero_steeper_than_mobius\": ";
        json += zero_steeper ? "true" : "false";
        json += ",\n  \"curves\": [";
        for (std::size_t i = 0; i < curves.size(); ++i) {
            json += i ? ",\n    " : "\n    ";
            json += curveJson(curves[i]);
        }
        json += "\n  ]\n}\n";

        std::ofstream os(out);
        os << json;
        if (!os)
            fatal("cannot write '%s'", out.c_str());
        std::printf("\n  wrote %s\n", out.c_str());

        return drift_ok && zero_steeper ? 0 : 1;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
