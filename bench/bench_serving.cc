/**
 * @file
 * bench_serving — SLO goodput of Mobius-style weight swapping under
 * live inference traffic (src/serve; see EXPERIMENTS.md
 * "BENCH_serving.json").
 *
 * The serving claim mirrors the paper's training claim: a model that
 * does not fit in aggregate GPU DRAM can still be served at useful
 * latency by swapping pipeline-stage weights DRAM <-> GPU behind
 * compute, and the cross-mapped swap schedule beats a
 * ZeRO-inference-style all-gather of sharded weights, whose
 * per-iteration traffic is N x the swap traffic.
 *
 * Five sections:
 *
 *  1. Capacity probe. GPT-51B (~102 GB FP16, vs 4 x 24 GB GPUs) under
 *     Mobius swap: a lone request calibrates the unloaded end-to-end
 *     latency (the SLO is 5 x that), a closed saturating burst
 *     calibrates capacity (tokens/sec at full batch). All-in-GPU
 *     placement must refuse this model outright (OOM) — the reason
 *     the comparison is swap vs gather in the first place.
 *
 *  2. Latency vs load. An open-loop Poisson sweep at fixed fractions
 *     of probed capacity, each load served once with Mobius swap and
 *     once with ZeRO-gather from the same seeded arrival process.
 *     Gates: Mobius SLO goodput strictly beats ZeRO-gather at every
 *     load; Mobius p99 degrades monotonically with offered load
 *     (1e-9 slack); every request's latency categories
 *     (queue/prefill/decode/swap-stall) sum to its e2e within 1e-9.
 *
 *  3. Burst adaptivity. GPT-8B (fits in GPU DRAM) under a
 *     quiet/burst/quiet phase schedule, served by the adaptive
 *     policy (Mobius swap when memory-pressed and quiet, all-in-GPU
 *     under backlog) vs static Mobius swap on identical arrivals.
 *     Gates: >= 2 placement switches; adaptive p99 no worse than
 *     static.
 *
 *  4. Faults. The mid-load Mobius sweep point rerun with transient
 *     transfer faults: every request must still finish, the latency
 *     sum identity must hold, and tail latency must not improve.
 *
 *  5. Width determinism. The mid-load Mobius sim fanned out via
 *     JobPump::runAll at several worker widths: every slot's request
 *     fingerprint must be bit-identical to a serial run. The serial
 *     run also reports deterministic work counters (rate solves,
 *     flows they touched, events executed).
 *
 * Usage: bench_serving [--quick] [--out FILE] [--threads N] [--prof]
 *
 *   --quick    smaller sweep; this is the tier-1 ctest smoke. Exits
 *              nonzero when any gate fails. The host-speed gate is
 *              a generous absolute floor so ASan/loaded CI pass.
 *   --threads  width list override: 0 (default) sweeps {1, 4, hw};
 *              N > 0 sweeps {1, N}.
 *   --out      JSON output path (default BENCH_serving.json). Top-
 *              level scalars are folded into BENCH_index.json by
 *              tools/bench_index; serve_requests_per_sec is the
 *              perf_gate-trended host metric.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/args.hh"
#include "bench_util.hh"
#include "model/model.hh"
#include "serve/serve_sim.hh"
#include "simcore/job_pump.hh"

using namespace mobius;

namespace
{

/** SLO = this many unloaded end-to-end latencies. */
constexpr double kSloMultiple = 5.0;
/** Latency category sum drift bound per request. */
constexpr double kMaxSumDrift = 1e-9;
/** p99 monotonicity slack across adjacent loads. */
constexpr double kMonotoneSlack = 1e-9;
/** Host-speed floor, completed requests per wall second across the
 *  sweep. Generous: debug/ASan builds clear it with margin. */
constexpr double kMinRequestsPerSec = 10.0;

struct SweepPoint
{
    double frac = 0.0; //!< offered load as a fraction of capacity
    double rate = 0.0; //!< request arrivals per second
    ServeMetrics mobius;
    ServeMetrics zero;
};

ServeRequest
protoReq(int prompt, int gen)
{
    ServeRequest r;
    r.promptTokens = prompt;
    r.maxNewTokens = gen;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Args args(argc, argv);
        bench::ProfScope prof_scope(args);
        const bool quick = args.has("quick");
        const std::string out =
            args.get("out", "BENCH_serving.json");
        const int threads = bench::threadsArg(args);
        args.rejectUnused();

        int hw = static_cast<int>(
            std::thread::hardware_concurrency());
        if (hw <= 0)
            hw = 4;
        std::vector<int> widths;
        if (threads > 0)
            widths = {1, threads};
        else {
            widths = {1, 4};
            if (hw > 4)
                widths.push_back(hw);
        }

        const int prompt = 48;
        const int gen = quick ? 4 : 8;
        const int reqs_per_load = quick ? 12 : 32;
        const std::vector<double> fracs = quick
            ? std::vector<double>{0.25, 0.5, 1.0, 4.0}
            : std::vector<double>{0.25, 0.5, 1.0, 2.0, 4.0};

        auto bigOptions = [&](ServePlacement policy, double slo) {
            ServeOptions o;
            o.model = gpt51b();
            o.placement.policy = policy;
            o.batch.maxBatch = 8;
            o.slo.e2eSeconds = slo;
            return o;
        };

        // --- Section 1: capacity probe on the non-fitting model.
        bench::section("Serving: GPT-51B capacity probe "
                       "(4x24 GB, model ~102 GB FP16)");

        bool oom_ok = false;
        try {
            ServeSim sim(
                bigOptions(ServePlacement::AllInGpu, 0.0));
            sim.submit(protoReq(prompt, gen));
            sim.run();
        } catch (const FatalError &) {
            oom_ok = true; // all-in-GPU cannot seat this model
        }

        ServeSim lone(bigOptions(ServePlacement::MobiusSwap, 0.0));
        lone.submit(protoReq(prompt, gen));
        const double lone_e2e = lone.run().e2eMax;
        const double slo = kSloMultiple * lone_e2e;

        ServeSim sat(bigOptions(ServePlacement::MobiusSwap, slo));
        for (int i = 0; i < reqs_per_load; ++i) {
            ServeRequest r = protoReq(prompt, gen);
            r.arrival = 0.0;
            sat.submit(r);
        }
        const ServeMetrics cap = sat.run();
        const double cap_rate = cap.requestsPerSec;

        std::printf("\n  all-in-GPU on GPT-51B: %s\n",
                    oom_ok ? "OOM (as it must)" : "FIT?!");
        std::printf("  unloaded e2e %.1fs -> SLO %.1fs (%gx)\n",
                    lone_e2e, slo, kSloMultiple);
        std::printf("  saturated: %.2f tokens/sec, %.4f "
                    "requests/sec, batch occupancy max %d\n",
                    cap.tokensPerSec, cap_rate, cap.maxOccupancy);

        // --- Section 2: latency vs offered load, swap vs gather.
        bench::section("Serving: latency vs load, Mobius swap vs "
                       "ZeRO-gather");

        std::vector<SweepPoint> sweep(fracs.size());
        for (std::size_t i = 0; i < fracs.size(); ++i) {
            sweep[i].frac = fracs[i];
            sweep[i].rate = fracs[i] * cap_rate;
        }
        // 2 sims per load (policy x load), fanned out over the
        // worker pool; each sim is single-threaded and seeded, so
        // the fan-out cannot perturb results.
        const int sweep_jobs =
            static_cast<int>(sweep.size()) * 2;
        double sweep_w0 = bench::wallNow();
        bench::runParallel(
            sweep_jobs, threads, "serving sims", [&](int j) {
                SweepPoint &pt =
                    sweep[static_cast<std::size_t>(j / 2)];
                const ServePlacement policy = (j % 2 == 0)
                    ? ServePlacement::MobiusSwap
                    : ServePlacement::ZeroGather;
                ServeSim sim(bigOptions(policy, slo));
                sim.submitOpenLoop(protoReq(prompt, gen),
                                   reqs_per_load,
                                   {{pt.rate, 1.0}}, 77);
                (j % 2 == 0 ? pt.mobius : pt.zero) = sim.run();
            });
        const double sweep_wall =
            std::max(bench::wallNow() - sweep_w0, 1e-9);
        const double reqs_per_sec =
            2.0 * reqs_per_load *
            static_cast<double>(sweep.size()) / sweep_wall;

        std::printf("\n  %-6s %-9s | %-28s | %-28s\n", "load",
                    "req/s", "mobius-swap", "zero-gather");
        std::printf("  %-6s %-9s | %9s %9s %8s | %9s %9s %8s\n",
                    "", "", "p99", "goodput", "slo%", "p99",
                    "goodput", "slo%");
        bool goodput_ok = true, monotone_ok = true, sum_ok = true;
        double worst_drift = 0.0;
        for (std::size_t i = 0; i < sweep.size(); ++i) {
            const SweepPoint &pt = sweep[i];
            goodput_ok = goodput_ok &&
                pt.mobius.sloGoodputTokensPerSec >
                    pt.zero.sloGoodputTokensPerSec;
            if (i > 0)
                monotone_ok = monotone_ok &&
                    sweep[i - 1].mobius.e2eP99 <=
                        pt.mobius.e2eP99 + kMonotoneSlack;
            worst_drift = std::max(
                {worst_drift, pt.mobius.worstSumDrift,
                 pt.zero.worstSumDrift});
            std::printf("  %-6.2f %-9.4f | %8.1fs %9.2f %7.0f%% "
                        "| %8.1fs %9.2f %7.0f%%\n",
                        pt.frac, pt.rate, pt.mobius.e2eP99,
                        pt.mobius.sloGoodputTokensPerSec,
                        100.0 * pt.mobius.sloAttainment,
                        pt.zero.e2eP99,
                        pt.zero.sloGoodputTokensPerSec,
                        100.0 * pt.zero.sloAttainment);
        }
        sum_ok = worst_drift <= kMaxSumDrift;
        std::printf("\n  swap goodput > gather goodput at every "
                    "load: %s\n",
                    goodput_ok ? "ok" : "FAIL");
        std::printf("  mobius p99 monotone in load: %s\n",
                    monotone_ok ? "ok" : "FAIL");
        std::printf("  latency categories sum to e2e: worst "
                    "|drift| %.3g (<= %g): %s\n",
                    worst_drift, kMaxSumDrift,
                    sum_ok ? "ok" : "FAIL");
        const bool host_ok = reqs_per_sec >= kMinRequestsPerSec;
        std::printf("  host speed: %.0f requests/sec simulated "
                    "(floor %.0f): %s\n",
                    reqs_per_sec, kMinRequestsPerSec,
                    host_ok ? "ok" : "FAIL");

        // The mid-load (1.0 x capacity) point is the headline.
        std::size_t mid = 0;
        for (std::size_t i = 0; i < sweep.size(); ++i)
            if (sweep[i].frac == 1.0)
                mid = i;
        const SweepPoint &midpt = sweep[mid];

        // --- Section 3: burst adaptivity on the fitting model.
        bench::section("Serving: adaptive placement under bursts "
                       "(GPT-8B)");
        auto burstOptions = [&](ServePlacement policy) {
            ServeOptions o;
            o.model = gpt8b();
            o.placement.policy = policy;
            o.placement.switchHigh = 6;
            o.batch.maxBatch = 8;
            // An unloaded GPT-8B swap iteration is the latency
            // unit; the burst SLO is a loose multiple of it.
            o.slo.e2eSeconds = 0.0;
            return o;
        };
        const int burst_reqs = quick ? 40 : 120;
        const std::vector<ArrivalPhase> burst_phases = {
            {0.5, 20.0}, {30.0, 2.0}, {0.5, 40.0}};
        std::vector<ServeMetrics> burst(2);
        bench::runParallel(2, threads, "burst sims", [&](int j) {
            ServeSim sim(burstOptions(
                j == 0 ? ServePlacement::Adaptive
                       : ServePlacement::MobiusSwap));
            sim.submitOpenLoop(protoReq(64, 6), burst_reqs,
                               burst_phases, 17);
            burst[static_cast<std::size_t>(j)] = sim.run();
        });
        const ServeMetrics &ad = burst[0];
        const ServeMetrics &st = burst[1];
        const bool adaptive_ok = ad.switches >= 2 &&
            ad.e2eP99 <= st.e2eP99 + kMonotoneSlack &&
            ad.completed == st.completed;
        worst_drift = std::max(
            {worst_drift, ad.worstSumDrift, st.worstSumDrift});
        std::printf("\n  adaptive: p99 %.2fs, %llu switches, "
                    "%.1f swap GB | static swap: p99 %.2fs, "
                    "%.1f swap GB\n",
                    ad.e2eP99,
                    (unsigned long long)ad.switches,
                    ad.swapBytes / 1e9, st.e2eP99,
                    st.swapBytes / 1e9);
        std::printf("  >= 2 switches and p99 no worse than "
                    "static: %s\n",
                    adaptive_ok ? "ok" : "FAIL");

        // --- Section 4: the mid-load point under transfer faults.
        bench::section("Serving: mid-load Mobius under transient "
                       "faults");
        ServeOptions fopts =
            bigOptions(ServePlacement::MobiusSwap, slo);
        fopts.faults.xfailProb = 0.05;
        fopts.faults.retryBudget = 16;
        fopts.faultSeed = 4;
        ServeSim fsim(fopts);
        fsim.submitOpenLoop(protoReq(prompt, gen), reqs_per_load,
                            {{midpt.rate, 1.0}}, 77);
        const ServeMetrics hurt = fsim.run();
        worst_drift = std::max(worst_drift, hurt.worstSumDrift);
        const bool faults_ok =
            hurt.completed ==
                static_cast<std::uint64_t>(reqs_per_load) &&
            hurt.faults.failures > 0 &&
            hurt.e2eP99 >= midpt.mobius.e2eP99 &&
            hurt.worstSumDrift <= kMaxSumDrift;
        std::printf("\n  %llu transfer failures, %llu retries: "
                    "p99 %.1fs (clean %.1fs), slo%% %.0f "
                    "(clean %.0f)\n",
                    (unsigned long long)hurt.faults.failures,
                    (unsigned long long)hurt.faults.retries,
                    hurt.e2eP99, midpt.mobius.e2eP99,
                    100.0 * hurt.sloAttainment,
                    100.0 * midpt.mobius.sloAttainment);
        std::printf("  all served, accounting exact, tail no "
                    "better than clean: %s\n",
                    faults_ok ? "ok" : "FAIL");

        // --- Section 5: determinism across worker widths.
        bench::section("Serving: fingerprint identity across "
                       "thread widths");
        auto runMid = [&](ServeSim &sim) {
            sim.submitOpenLoop(protoReq(prompt, gen),
                               reqs_per_load,
                               {{midpt.rate, 1.0}}, 77);
            return sim.run().fingerprint;
        };
        auto midFingerprint = [&]() {
            ServeSim sim(
                bigOptions(ServePlacement::MobiusSwap, slo));
            return runMid(sim);
        };
        const std::uint64_t want = midpt.mobius.fingerprint;
        // The serial run also yields the deterministic work counts:
        // equal across builds that simulate the same thing, however
        // fast they do it.
        ServeSim counted(bigOptions(ServePlacement::MobiusSwap, slo));
        bool ident_ok = runMid(counted) == want;
        const FairShareActivity mid_xfer =
            counted.ctx().xfer().fairShareActivity();
        const std::uint64_t mid_events =
            counted.ctx().queue().executed();
        for (int w : widths) {
            std::vector<std::uint64_t> got(4, 0);
            JobPump::runAll(
                4,
                [&](int i) {
                    got[static_cast<std::size_t>(i)] =
                        midFingerprint();
                },
                w);
            for (std::uint64_t fp : got)
                ident_ok = ident_ok && fp == want;
        }
        std::printf("\n  %016llx across widths {",
                    (unsigned long long)want);
        for (std::size_t i = 0; i < widths.size(); ++i)
            std::printf("%s%d", i ? ", " : "", widths[i]);
        std::printf("} x 4 replicas: %s\n",
                    ident_ok ? "bit-identical"
                             : "NONDETERMINISTIC");
        std::printf("  work: %llu rate solves touching %llu flows, "
                    "%llu events\n",
                    (unsigned long long)mid_xfer.solves,
                    (unsigned long long)mid_xfer.flowsTouched,
                    (unsigned long long)mid_events);

        const bool ok = oom_ok && goodput_ok && monotone_ok &&
            sum_ok && host_ok && adaptive_ok && faults_ok &&
            ident_ok;

        // --- JSON.
        std::string json =
            "{\n  \"schema\": \"mobius-bench/1\",\n  \"quick\": ";
        json += quick ? "true" : "false";
        json += strfmt(",\n  \"requests_per_load\": %d",
                       reqs_per_load);
        json += strfmt(",\n  \"serve_requests_per_sec\": %.17g",
                       reqs_per_sec);
        json += strfmt(
            ",\n  \"serve_capacity_tokens_per_sec\": %.17g",
            cap.tokensPerSec);
        json += strfmt(
            ",\n  \"serve_capacity_requests_per_sec\": %.17g",
            cap_rate);
        json += strfmt(",\n  \"serve_lone_e2e_seconds\": %.17g",
                       lone_e2e);
        json += strfmt(",\n  \"serve_slo_seconds\": %.17g", slo);
        json += strfmt(
            ",\n  \"serve_goodput_mobius_midload\": %.17g",
            midpt.mobius.sloGoodputTokensPerSec);
        json += strfmt(
            ",\n  \"serve_goodput_zero_midload\": %.17g",
            midpt.zero.sloGoodputTokensPerSec);
        json += strfmt(
            ",\n  \"serve_attainment_mobius_midload\": %.17g",
            midpt.mobius.sloAttainment);
        json += strfmt(
            ",\n  \"serve_p99_low_load\": %.17g",
            sweep.front().mobius.e2eP99);
        json += strfmt(
            ",\n  \"serve_p99_high_load\": %.17g",
            sweep.back().mobius.e2eP99);
        json += strfmt(",\n  \"serve_ttft_p99_midload\": %.17g",
                       midpt.mobius.ttftP99);
        json += strfmt(
            ",\n  \"serve_adaptive_switches\": %llu",
            (unsigned long long)ad.switches);
        json += strfmt(
            ",\n  \"serve_adaptive_p99\": %.17g"
            ",\n  \"serve_static_p99\": %.17g",
            ad.e2eP99, st.e2eP99);
        json += strfmt(
            ",\n  \"serve_fault_failures\": %llu"
            ",\n  \"serve_fault_retries\": %llu"
            ",\n  \"serve_faulted_p99\": %.17g",
            (unsigned long long)hurt.faults.failures,
            (unsigned long long)hurt.faults.retries, hurt.e2eP99);
        json += strfmt(",\n  \"serve_worst_sum_drift\": %.17g",
                       worst_drift);
        json += strfmt(
            ",\n  \"serve_midload_xfer_solves\": %llu"
            ",\n  \"serve_midload_xfer_flows_touched\": %llu"
            ",\n  \"serve_midload_events\": %llu",
            (unsigned long long)mid_xfer.solves,
            (unsigned long long)mid_xfer.flowsTouched,
            (unsigned long long)mid_events);
        json += strfmt(
            ",\n  \"fingerprint\": \"%016llx\"",
            (unsigned long long)want);
        json += ",\n  \"loads\": [";
        for (std::size_t i = 0; i < sweep.size(); ++i) {
            const SweepPoint &pt = sweep[i];
            json += i ? ",\n    " : "\n    ";
            json += strfmt(
                "{\"load\":%.17g,\"rate\":%.17g,"
                "\"mobius_p99\":%.17g,\"mobius_goodput\":%.17g,"
                "\"mobius_slo\":%.17g,\"mobius_stall\":%.17g,"
                "\"zero_p99\":%.17g,\"zero_goodput\":%.17g,"
                "\"zero_slo\":%.17g}",
                pt.frac, pt.rate, pt.mobius.e2eP99,
                pt.mobius.sloGoodputTokensPerSec,
                pt.mobius.sloAttainment,
                pt.mobius.stallSeconds, pt.zero.e2eP99,
                pt.zero.sloGoodputTokensPerSec,
                pt.zero.sloAttainment);
        }
        json += "\n  ]";
        json += ",\n  \"all_in_gpu_oom_ok\": ";
        json += oom_ok ? "true" : "false";
        json += ",\n  \"goodput_ok\": ";
        json += goodput_ok ? "true" : "false";
        json += ",\n  \"p99_monotone_ok\": ";
        json += monotone_ok ? "true" : "false";
        json += ",\n  \"sum_ok\": ";
        json += sum_ok ? "true" : "false";
        json += ",\n  \"adaptive_ok\": ";
        json += adaptive_ok ? "true" : "false";
        json += ",\n  \"faults_ok\": ";
        json += faults_ok ? "true" : "false";
        json += ",\n  \"determinism_ok\": ";
        json += ident_ok ? "true" : "false";
        json += ",\n  \"ok\": ";
        json += ok ? "true" : "false";
        json += "\n}\n";

        std::ofstream os(out);
        os << json;
        if (!os)
            fatal("cannot write '%s'", out.c_str());
        std::printf("\n  wrote %s\n", out.c_str());

        return ok ? 0 : 1;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
