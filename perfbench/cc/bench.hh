/**
 * @file
 * Shared pieces of the repo benchmark: clocks, the per-op outcome
 * record, small statistics helpers and the workload interface the
 * main program (main.cc) runs.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "spans.hh"

namespace perfbench
{

/** Host wall clock, seconds (steady). */
double wallNow();
/** Process CPU seconds, all threads. */
double cpuNow();
/** Peak resident set of this process, MB. */
double peakRssMb();

/** Median (0 when empty). */
double median(std::vector<double> v);
/** Linear-interpolated quantile, q in [0, 1] (0 when empty). */
double quantile(std::vector<double> v, double q);
/** Geometric mean of positive values (0 when empty). */
double geomean(const std::vector<double> &v);

/** FNV-1a folding, the same scheme the library's fingerprints use. */
void fold(std::uint64_t &h, std::uint64_t v);
/** Fold the bit pattern of @p v. */
void foldDouble(std::uint64_t &h, double v);
/** FNV-1a offset basis. */
constexpr std::uint64_t kFoldSeed = 0xcbf29ce484222325ULL;

/** What one operation (query, fleet run, serving run) produced. */
struct OpResult
{
    /** Work units completed: queries, jobs or requests. */
    std::uint64_t units = 0;
    /** Output digest: every modelled number the op produced. */
    std::uint64_t digest = kFoldSeed;
    /** Failed output checks; empty = the op is correct. */
    std::vector<std::string> errors;
};

/** Per-layer counts a traced pass collects from public outputs. */
using Counts = std::map<std::string, double>;

/** A named figure with its unit: a summary line or a result metric. */
struct SummaryLine
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * A benchmark workload. main.cc calls setup() (repeatedly, to time it),
 * then runs passes of ops; every pass runs the same inputs, so op i
 * of any pass must reproduce the digest of op i of the first.
 */
class WorkloadRunner
{
  public:
    virtual ~WorkloadRunner() = default;

    /** Name of one completed work unit ("query", "job", ...). */
    virtual const char *unit() const = 0;

    /** Build the seeded inputs (timed as set-up; may repeat). */
    virtual void setup(std::uint64_t seed) = 0;

    /** Ops in one pass. */
    virtual std::size_t opsPerPass() const = 0;

    /**
     * Run op @p i. A null @p tracer and @p metrics is the untraced
     * (timed) mode; otherwise spans go to @p tracer, engine counters
     * to @p metrics, and output-derived counts to @p counts.
     */
    virtual OpResult run(std::size_t i, Tracer *tracer,
                         mobius::MetricsRegistry *metrics,
                         Counts *counts) = 0;

    /**
     * Modelled results of the last completed pass (every pass is
     * identical, which the digests check). @return sim_time_s, the
     * geometric mean of the simulated time of one unit; appends the
     * workload's own modelled figures to @p lines.
     */
    virtual double modelled(std::vector<SummaryLine> &lines) const = 0;

    /**
     * Extra traced work outside the measured ops, run after each
     * traced pass: the fleet replays its jobs' steps to read engine
     * counters FleetSim does not expose. @return failed checks.
     */
    virtual std::vector<std::string>
    traceExtras(Tracer &, mobius::MetricsRegistry &, Counts &)
    {
        return {};
    }
};

/** The three workloads (see README.md for why each exists). */
std::unique_ptr<WorkloadRunner> makePlanStep();
std::unique_ptr<WorkloadRunner> makeFleet();
std::unique_ptr<WorkloadRunner> makeServe();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
