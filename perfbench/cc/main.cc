/**
 * @file
 * perfbench — the repo benchmark program.
 *
 * Usage: perfbench --workload plan-step|fleet|serve --seed N
 *                  --seconds S --trace 0|1 [--trace-out FILE]
 *
 * Untraced (--trace 0): set-up runs several times (its median is
 * setup_s; it also reruns before every later pass), then whole passes of the workload's ops run until S
 * seconds of op time have passed (at least one pass), timed per op. The
 * last stdout line is the JSON result with the end-to-end metrics.
 *
 * Traced (--trace 1): pairs of passes run until S seconds have
 * passed (at least one pair); the first pass of a pair is untraced,
 * the second records spans around every library call and passes a
 * MetricsRegistry in. The JSON result carries the per-layer metrics,
 * per traced pass.
 *
 * Every op's outputs are checked; op i of every pass must reproduce
 * the output digest of op i of the first pass, traced or not.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "bench.hh"

using namespace perfbench;

namespace
{

/** Set-up repetitions before the first pass and before each later
 *  pass; setup_s is the median of all of them. */
constexpr int kSetupFirst = 5, kSetupPerPass = 2;
/** Host latency tail percentile reported as host_p95_ms. */
constexpr double kTailQuantile = 0.95;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "plan-step|fleet|serve --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (!(a.seconds >= 0.0) || a.seconds > 3600.0)
                usage("--seconds must be in [0, 3600]");
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace must be 0 or 1");
            a.trace = v == "1";
        } else if (k == "--trace-out") {
            a.traceOut = v;
        } else {
            usage(("unknown flag " + k).c_str());
        }
        if (end && *end != '\0')
            usage(("bad number for " + k).c_str());
    }
    if (!have_workload)
        usage("--workload is required");
    return a;
}

/** Result accumulated over all ops of a run. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t mismatches = 0; //!< ops whose digest differed
    std::vector<std::uint64_t> firstDigest;

    void
    record(std::size_t i, const OpResult &r)
    {
        ++attempted;
        if (!r.errors.empty()) {
            ++failed;
            if (failed <= 5)
                for (const std::string &e : r.errors)
                    std::fprintf(stderr, "perfbench: op %zu: %s\n", i,
                                 e.c_str());
        }
        if (i >= firstDigest.size()) {
            firstDigest.push_back(r.digest);
        } else if (firstDigest[i] != r.digest) {
            ++mismatches;
            std::fprintf(stderr,
                         "perfbench: op %zu output digest differs from "
                         "its first run\n",
                         i);
        }
    }

    std::uint64_t
    digest() const
    {
        std::uint64_t h = kFoldSeed;
        for (std::uint64_t d : firstDigest)
            fold(h, d);
        return h;
    }
};

void
printJson(bool correct, const Tally &t, const std::vector<SummaryLine> &ms)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(t.attempted),
                static_cast<unsigned long long>(t.failed));
    for (std::size_t i = 0; i < ms.size(); ++i) {
        const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", ms[i].name.c_str(), v,
                    ms[i].unit.c_str());
    }
    std::printf("}}\n");
}

double
get(const std::map<std::string, double> &m, const std::string &k)
{
    auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
}

/** Wall and process-CPU seconds of one untraced op. */
struct OpTime
{
    double wall = 0.0;
    double cpu = 0.0;
    std::uint64_t units = 0; //!< units the op completed
};

OpTime
timedOp(WorkloadRunner &w, std::size_t i, Tally &t, std::uint64_t &units)
{
    const double c0 = cpuNow();
    const double t0 = wallNow();
    OpResult r = w.run(i, nullptr, nullptr, nullptr);
    OpTime dt{wallNow() - t0, cpuNow() - c0, r.units};
    units += r.units;
    t.record(i, r);
    return dt;
}

int
runBench(const Args &a)
{
    std::unique_ptr<WorkloadRunner> w;
    if (a.workload == "plan-step")
        w = makePlanStep();
    else if (a.workload == "fleet")
        w = makeFleet();
    else if (a.workload == "serve")
        w = makeServe();
    else
        usage(("unknown workload " + a.workload).c_str());

    // Set-up also reruns before every later pass, so its median
    // samples the host over the whole run, as the passes do.
    std::vector<double> setup;
    auto timed_setup = [&](int reps) {
        for (int k = 0; k < reps; ++k) {
            const double t0 = wallNow();
            w->setup(a.seed);
            setup.push_back(wallNow() - t0);
        }
    };
    timed_setup(kSetupFirst);

    const std::size_t n = w->opsPerPass();
    Tally tally;
    std::vector<SummaryLine> out;
    std::vector<SummaryLine> lines;
    const std::string unit = w->unit();

    if (!a.trace) {
        // Whole passes only, so every run weighs the ops alike.
        std::vector<double> best_wall(n, 1e300), best_cpu(n, 1e300);
        std::vector<std::uint64_t> op_units(n, 0);
        std::uint64_t units = 0;
        double elapsed = 0.0, cpu_total = 0.0;
        std::size_t passes = 0;
        do {
            if (passes > 0)
                timed_setup(kSetupPerPass);
            units = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const OpTime t = timedOp(*w, i, tally, units);
                best_wall[i] = std::min(best_wall[i], t.wall);
                best_cpu[i] = std::min(best_cpu[i], t.cpu);
                op_units[i] = t.units;
                elapsed += t.wall;
                cpu_total += t.cpu;
            }
            ++passes;
        } while (elapsed < a.seconds);
        // Other tenants slow this host by 20-30% for seconds at a time,
        // so each op is timed at its best over the passes (every pass
        // runs identical inputs): the least disturbed measure of its
        // cost. Latency percentiles are per unit: an op's best time
        // split evenly over the units it completed, one sample each.
        std::vector<double> unit_ms;
        for (std::size_t i = 0; i < n; ++i)
            unit_ms.insert(unit_ms.end(), op_units[i],
                           best_wall[i] * 1e3 /
                               static_cast<double>(op_units[i]));
        const double wall = std::accumulate(best_wall.begin(),
                                            best_wall.end(), 0.0);
        const double cpu = std::accumulate(best_cpu.begin(),
                                           best_cpu.end(), 0.0);
        const double sim_time = w->modelled(lines);
        const double ok = 1.0 -
            static_cast<double>(tally.failed) /
                static_cast<double>(tally.attempted);
        const double u = static_cast<double>(units);
        out = {
            {"setup_s", median(setup), "s"},
            {"throughput_per_s", u / wall, "1/s"},
            {"cpu_ms_per_unit", cpu * 1e3 / u, "ms"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"ok_ratio", ok, "ratio"},
            {"host_p50_ms", median(unit_ms), "ms"},
            {"host_p95_ms", quantile(unit_ms, kTailQuantile), "ms"},
            {"sim_time_s", sim_time, "s"},
        };
        std::printf("perfbench %s seed %llu: %zu passes of %zu ops, "
                    "%llu %ss per pass, %.3f s of op time\n",
                    a.workload.c_str(),
                    static_cast<unsigned long long>(a.seed), passes, n,
                    static_cast<unsigned long long>(units), unit.c_str(),
                    elapsed);
        std::printf("  host figures take each op at its best of %zu "
                    "runs; host_p50_ms and host_p95_ms are over %zu %ss "
                    "from %zu ops\n",
                    passes, unit_ms.size(), unit.c_str(), n);
        std::printf("  %-24s %14.6g %s\n", "cpu_s", cpu_total, "s");
        std::printf("  %-24s %14.6g %s\n", "fail_ratio", 1.0 - ok, "ratio");
    } else {
        Tracer tr;
        std::map<std::string, double> reg_totals;
        Counts counts;
        double untraced = 0.0, traced = 0.0;
        std::uint64_t units = 0, op_id = 0;
        int pairs = 0;
        const double start = wallNow();
        do {
            if (pairs > 0)
                timed_setup(kSetupPerPass);
            for (std::size_t i = 0; i < n; ++i)
                untraced += timedOp(*w, i, tally, units).wall;
            mobius::MetricsRegistry reg;
            for (std::size_t i = 0; i < n; ++i) {
                tr.setOp(++op_id);
                const double t0 = wallNow();
                OpResult r;
                {
                    Span root(&tr, a.workload.c_str(), "op");
                    r = w->run(i, &tr, &reg, &counts);
                }
                traced += wallNow() - t0;
                tally.record(i, r);
            }
            tr.setOp(++op_id);
            std::vector<std::string> extra = w->traceExtras(tr, reg, counts);
            if (!extra.empty()) {
                ++tally.failed;
                for (std::size_t k = 0; k < extra.size() && k < 5; ++k)
                    std::fprintf(stderr, "perfbench: trace: %s\n",
                                 extra[k].c_str());
            }
            reg.visitCounters([&](const mobius::Counter &c) {
                reg_totals[c.name()] += c.value();
            });
            ++pairs;
        } while (wallNow() - start < a.seconds);
        w->modelled(lines);

        // Self time per layer and per span name, per traced pass.
        const std::vector<SpanRec> &spans = tr.spans();
        const std::vector<double> self = tr.selfSeconds();
        std::map<std::string, double> self_name, calls_name;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            self_name[spans[i].name] += self[i] / pairs;
            calls_name[spans[i].name] += 1.0 / pairs;
        }
        std::map<std::string, LayerTime> layer;
        for (const LayerTime &lt : tr.layerTimes())
            layer[lt.layer] = lt;
        auto self_ms = [&](const char *l) {
            return layer.count(l) ? layer[l].selfSeconds * 1e3 / pairs : 0.0;
        };
        auto calls = [&](const char *l) {
            return layer.count(l) ? static_cast<double>(layer[l].calls) / pairs
                                  : 0.0;
        };
        const double op_ms =
            layer.count("op") ? layer["op"].totalSeconds * 1e3 / pairs : 0.0;
        const double mobius_ms = get(self_name, "runMobiusStepEx") * 1e3;
        const double zero_ms = get(self_name, "runZeroStepEx") * 1e3;
        const double serve_run_ms = get(self_name, "ServeSim::run") * 1e3;
        const double spans_n = get(counts, "runtime.spans") / pairs;
        const double touched = get(reg_totals, "xfer.rate.flows_touched");
        const double skipped = get(reg_totals, "xfer.rate.flows_skipped");
        const double events = (get(reg_totals, "sim.events.executed") +
                               get(counts, "simcore.events")) /
            pairs;
        auto per = [&](double v) { return v / pairs; };
        out = {
            {"plan.calls", calls("plan"), "count"},
            {"plan.host_ms", self_ms("plan"), "ms"},
            {"plan.share", op_ms > 0 ? self_ms("plan") / op_ms : 0.0, "ratio"},
            {"plan.solve_ms", per(get(counts, "plan.solve_ms")), "ms"},
            {"plan.mapping_ms", per(get(counts, "plan.mapping_ms")), "ms"},
            {"solver.calls", calls("solver"), "count"},
            {"solver.host_ms", self_ms("solver"), "ms"},
            {"solver.bb_nodes", per(get(reg_totals, "plan.mip.nodes")),
             "count"},
            {"solver.lp_pivots", per(get(reg_totals, "plan.mip.lp_pivots")),
             "count"},
            {"runtime.mobius_ms", mobius_ms, "ms"},
            {"runtime.zero_ms", zero_ms, "ms"},
            {"runtime.steps",
             get(calls_name, "runMobiusStepEx") +
                 get(calls_name, "runZeroStepEx"),
             "count"},
            {"runtime.spans", spans_n, "count"},
            {"runtime.ms_per_kspan",
             spans_n > 0 ? (mobius_ms + zero_ms) / (spans_n / 1e3) : 0.0,
             "ms"},
            {"xfer.flows", per(get(reg_totals, "xfer.flows.submitted")),
             "count"},
            {"xfer.rate_recomputes",
             per(get(reg_totals, "xfer.rate.recomputes")), "count"},
            {"xfer.flows_touched", per(touched), "count"},
            {"xfer.touched_ratio",
             touched + skipped > 0 ? touched / (touched + skipped) : 0.0,
             "ratio"},
            {"simcore.events", events, "count"},
            {"simcore.us_per_event",
             events > 0 ? (mobius_ms + zero_ms + serve_run_ms) * 1e3 / events
                        : 0.0,
             "us"},
            {"serve.run_ms", serve_run_ms, "ms"},
            {"serve.build_ms", get(self_name, "ServeSim") * 1e3, "ms"},
            {"serve.iterations", per(get(counts, "serve.iterations")),
             "count"},
            {"serve.swap_loads", per(get(counts, "serve.swap_loads")),
             "count"},
            {"serve.switches", per(get(counts, "serve.switches")), "count"},
            {"fleet.run_ms", get(self_name, "FleetSim::run") * 1e3, "ms"},
            {"fleet.submit_ms", get(self_name, "FleetSim::submit") * 1e3,
             "ms"},
            {"fleet.hit_ratio", per(get(counts, "fleet.hit_ratio")), "ratio"},
            {"fleet.admissions", per(get(counts, "fleet.admissions")),
             "count"},
            {"fleet.preemptions", per(get(counts, "fleet.preemptions")),
             "count"},
            {"fleet.backfills", per(get(counts, "fleet.backfills")), "count"},
            {"fault.failures", per(get(reg_totals, "fault.failures")),
             "count"},
            {"fault.retries", per(get(reg_totals, "fault.retries")), "count"},
            {"obs.attrib_ms", self_ms("obs"), "ms"},
            {"model.build_ms", self_ms("model"), "ms"},
            {"unattributed.share", op_ms > 0 ? self_ms("op") / op_ms : 0.0,
             "ratio"},
            {"trace_overhead", untraced > 0 ? (traced - untraced) / untraced
                                            : 0.0,
             "ratio"},
        };

        std::printf("perfbench %s seed %llu traced: %d pass pairs, "
                    "%zu spans\n",
                    a.workload.c_str(),
                    static_cast<unsigned long long>(a.seed), pairs,
                    spans.size());
        std::printf("  per traced pass: %.3f ms in ops (untraced %.3f ms, "
                    "overhead %+.2f%%)\n",
                    op_ms, untraced * 1e3 / pairs,
                    untraced > 0 ? 100.0 * (traced - untraced) / untraced
                                 : 0.0);
        std::printf("  %-10s %10s %12s %12s %10s\n", "layer", "calls",
                    "total_ms", "self_ms", "self_share");
        for (const LayerTime &lt : tr.layerTimes())
            std::printf("  %-10s %10.1f %12.3f %12.3f %10.4f\n",
                        lt.layer.c_str(),
                        static_cast<double>(lt.calls) / pairs,
                        lt.totalSeconds * 1e3 / pairs,
                        lt.selfSeconds * 1e3 / pairs,
                        op_ms > 0 ? lt.selfSeconds * 1e3 / pairs / op_ms : 0.0);
        std::printf("  (self_share is of op time; 'op' self time is "
                    "unattributed, 'replay' runs outside the ops)\n");
        if (!a.traceOut.empty() && !tr.writeJson(a.traceOut))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         a.traceOut.c_str());
    }

    // Identical for one seed at any host speed, traced or not.
    std::printf("modelled:\n");
    for (const SummaryLine &l : lines)
        std::printf("  %-32s %.17g %s\n", l.name.c_str(), l.value,
                    l.unit.c_str());
    std::printf("  %-32s 0x%016llx\n", "digest",
                static_cast<unsigned long long>(tally.digest()));
    std::printf("metrics:\n");
    for (const SummaryLine &m : out)
        std::printf("  %-24s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    const bool correct = tally.failed == 0 && tally.mismatches == 0;
    printJson(correct, tally, out);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runBench(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
