/**
 * @file
 * Shared helpers for the experiment harnesses in bench/: one binary
 * per paper table/figure, each printing the rows/series the paper
 * reports (see EXPERIMENTS.md for the mapping and expected shapes).
 */

#ifndef MOBIUS_BENCH_BENCH_UTIL_HH
#define MOBIUS_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstring>
#include <ctime>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "base/args.hh"
#include "obs/prof.hh"
#include "runtime/api.hh"
#include "simcore/job_pump.hh"

namespace mobius::bench
{

/**
 * Process CPU seconds (std::clock). The min-of-N gates below use it
 * because process CPU time is immune to the machine being busy, so
 * the quick smokes stay stable under a parallel ctest.
 */
inline double
cpuNow()
{
    return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

/** Monotonic wall-clock seconds. */
inline double
wallNow()
{
    return prof::wallNow();
}

/**
 * Minimum process-CPU seconds of @p body over @p repeats runs — the
 * standard load-immune measurement for every overhead gate (timeline
 * recording, host profiler): the min discards scheduling noise,
 * which only ever inflates a run.
 */
template <typename Fn>
inline double
minCpuOf(int repeats, Fn &&body)
{
    double best = -1.0;
    for (int r = 0; r < repeats; ++r) {
        const double t0 = cpuNow();
        body();
        const double dt = cpuNow() - t0;
        if (best < 0.0 || dt < best)
            best = dt;
    }
    return best < 0.0 ? 0.0 : best;
}

/**
 * The shared `--prof` flag: construct one at the top of main() and
 * the host self-profiler is enabled for the whole run, with the
 * self-time table printed on destruction (stdout, after the bench's
 * own output). Works for Args-based harnesses and bare argv ones:
 *
 *   bench::ProfScope prof(args);          // Args harness
 *   bench::ProfScope prof(argc, argv);    // bare main(argc, argv)
 */
class ProfScope
{
  public:
    /** Enable profiling when @p args has `--prof`. */
    explicit ProfScope(const Args &args)
        : on_(args.has("prof"))
    {
        if (on_)
            prof::setEnabled(true);
    }

    /** Enable profiling when argv contains `--prof`. */
    ProfScope(int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i)
            on_ = on_ || std::strcmp(argv[i], "--prof") == 0;
        if (on_)
            prof::setEnabled(true);
    }

    /** Print the self-time table if profiling was enabled. */
    ~ProfScope()
    {
        if (!on_)
            return;
        prof::setEnabled(false);
        std::printf("\n--- host self-profile ---\n%s",
                    prof::table(prof::snapshot()).c_str());
    }

    /** @return true when `--prof` was given. */
    bool enabled() const { return on_; }

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    bool on_ = false;
};

/**
 * The shared `--threads N` flag (0 = hardware concurrency),
 * identical across every parallel bench harness.
 */
inline int
threadsArg(const Args &args)
{
    return static_cast<int>(args.getInt("threads", 0));
}

/**
 * Fan @p body over [0, count) on a JobPump::runAll() pool of
 * @p threads workers and print the standard one-line width report
 * ("(N curves on T threads)"). Callers keep results in per-index
 * slots and reduce after this returns, in index order — the
 * JobPump::runAll() determinism contract.
 * @return the worker count actually used.
 */
inline int
runParallel(std::size_t count, int threads, const char *what,
            const std::function<void(int)> &body)
{
    const int used =
        JobPump::runAll(static_cast<int>(count), body, threads);
    std::printf("  (%zu %s on %d threads)\n", count, what, used);
    return used;
}

/** Print a figure/table banner. */
inline void
section(const std::string &title)
{
    std::printf("\n================================================="
                "=============\n%s\n"
                "=================================================="
                "============\n",
                title.c_str());
}

/** One experiment cell: a system run on a workload. */
struct RunResult
{
    StepStats stats;
    bool oom = false;
    std::string oomReason;
};

/** Run Mobius end to end (plan + execute). */
inline RunResult
runMobius(const GptConfig &cfg, const Server &server,
          int microbatch = -1, int num_microbatches = -1,
          PlanOptions opts = {})
{
    Workload work(cfg, server, microbatch, num_microbatches);
    MobiusPlan plan = planMobius(server, work.cost(), opts);
    return RunResult{runMobiusStepEx(server, work.cost(), plan).stats,
                     false, ""};
}

/** Run the DeepSpeed (ZeRO-3 + heterogeneous memory) baseline. */
inline RunResult
runDeepSpeed(const GptConfig &cfg, const Server &server,
             int microbatch = -1, int num_microbatches = -1)
{
    Workload work(cfg, server, microbatch, num_microbatches);
    return RunResult{runZeroStepEx(server, work.cost()).stats, false, ""};
}

/** Run GPipe / DeepSpeed-pipeline; OOM becomes a marked result. */
inline RunResult
runPipeline(const GptConfig &cfg, const Server &server,
            PipelineSchedule schedule, int microbatch = -1,
            int num_microbatches = -1)
{
    Workload work(cfg, server, microbatch, num_microbatches);
    try {
        return RunResult{
            runPipelineStep(server, work.cost(), schedule).stats,
            false, ""};
    } catch (const FatalError &e) {
        return RunResult{{}, true, e.what()};
    }
}

/** "1.23 s" or "OOM". */
inline std::string
cell(const RunResult &r)
{
    if (r.oom)
        return "OOM";
    return strfmt("%7.2f s", r.stats.stepTime);
}

/** Print a byte-weighted bandwidth CDF as (GB/s, fraction) rows. */
inline void
printCdf(const std::string &label,
         const std::vector<BandwidthSample> &samples)
{
    BandwidthCdf cdf(samples);
    std::printf("  %-28s", (label + ":").c_str());
    if (cdf.empty()) {
        std::printf(" (no samples)\n");
        return;
    }
    for (double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
        std::printf("  p%-2.0f=%5.1f GB/s", q * 100,
                    cdf.quantile(q) / 1e9);
    }
    std::printf("  max=%5.1f GB/s\n", cdf.maxBandwidth() / 1e9);
}

/** Samples that crossed the host (exclude pure-NVLink flows). */
inline std::vector<BandwidthSample>
hostSamples(const StepStats &stats)
{
    std::vector<BandwidthSample> out;
    for (const auto &s : stats.traffic.samples()) {
        if (!s.peerOnly)
            out.push_back(s);
    }
    return out;
}

} // namespace mobius::bench

#endif // MOBIUS_BENCH_BENCH_UTIL_HH
