/**
 * @file
 * The FaultInjector turns a FaultPlan plus a seed into deterministic
 * mid-run events (DESIGN.md §7):
 *
 *  - degradation windows and stochastic flaps rescale link capacity
 *    (TransferEngine::setLinkCapacityFactor), GPU compute speed
 *    (ComputeEngine::setThrottle) or the CPU optimizer mid-run, with
 *    overlapping degradations composing multiplicatively;
 *  - every transfer the runtime routes through submit() is sampled
 *    against the plan's transient-failure probability; doomed
 *    attempts occupy their engines and links for the full transfer,
 *    then fail, and the injector retries them with exponential
 *    backoff (deterministic jitter) until the retry budget runs out
 *    (fatal — the simulated job dies);
 *  - periodic lightweight checkpoints inject a fixed-cost task at the
 *    *front* of every GPU's compute queue; a GPU crash injects a
 *    recovery task of restartCost + work-lost-since-last-checkpoint
 *    seconds (compute-side stall only — the documented
 *    simplification; memory state is assumed re-materialised by the
 *    normal prefetch path);
 *  - everything it does is traced: window/flap intervals on track
 *    "fault.events", retry backoff gaps on "fault.retry", checkpoint
 *    and recovery tasks on the GPU compute tracks — all category
 *    "fault", with causal edges into the work they delayed, so
 *    critical-path attribution (obs/critical_path.hh) carries an
 *    exact-sum "fault" column.
 *
 * Determinism: three independent RNG streams (failure sampling,
 * backoff jitter, flap gaps) are derived from the one --fault-seed
 * via SplitMix64, so the same seed gives a bit-identical run and
 * adding, say, more flaps never perturbs the failure pattern.
 *
 * Lifetime: the injector's own timed events (window edges, flap
 * starts, checkpoint ticks, crashes) would keep the event queue
 * spinning after the workload drains, so each fire first asks "is
 * the workload done?" (a callback the RunContext provides: all
 * engines idle and no retry pending) and, if so, cancels every
 * remaining injector event instead of running it. Retry-backoff
 * events are exempt from cancellation — a pending retry *is*
 * outstanding workload.
 */

#ifndef MOBIUS_FAULT_FAULT_INJECTOR_HH
#define MOBIUS_FAULT_FAULT_INJECTOR_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "base/rng.hh"
#include "fault/fault_plan.hh"
#include "obs/metrics.hh"
#include "simcore/event_queue.hh"
#include "simcore/trace.hh"
#include "xfer/compute_engine.hh"
#include "xfer/transfer_engine.hh"

namespace mobius
{

/**
 * Derive the seed of independent RNG stream @p stream from the user
 * seed (SplitMix64 over the pair), so streams never overlap and each
 * fault mechanism consumes randomness independently of the others.
 */
std::uint64_t faultStreamSeed(std::uint64_t seed,
                              std::uint64_t stream);

/** Aggregate fault/recovery activity over one run. */
struct FaultCounters
{
    std::uint64_t failures = 0;    //!< doomed transfer attempts
    std::uint64_t retries = 0;     //!< resubmissions issued
    std::uint64_t crashes = 0;     //!< GPU crashes fired
    std::uint64_t checkpoints = 0; //!< checkpoint ticks fired
    std::uint64_t windows = 0;     //!< degrade windows opened
    std::uint64_t flaps = 0;       //!< flap windows opened

    double backoffSeconds = 0.0;    //!< summed retry backoff gaps
    double lostSeconds = 0.0;       //!< failed-attempt transfer time
    double recoverySeconds = 0.0;   //!< crash-recovery task time
    double checkpointSeconds = 0.0; //!< checkpoint task time

    /** Total seconds of injected fault/recovery activity. */
    double
    seconds() const
    {
        return backoffSeconds + lostSeconds + recoverySeconds +
            checkpointSeconds;
    }
};

/** Executes a FaultPlan against the live engines. */
class FaultInjector
{
  public:
    /**
     * @param cpu_throttle applies a throttle factor to the CPU
     *        optimizer (the injector cannot depend on runtime/).
     * @param workload_idle true when every engine has drained; the
     *        injector uses it to stop rescheduling its own events.
     */
    FaultInjector(EventQueue &queue, const Topology &topo,
                  TransferEngine &xfer,
                  std::vector<ComputeEngine *> compute,
                  FaultPlan plan, std::uint64_t seed,
                  std::function<void(double)> cpu_throttle,
                  std::function<bool()> workload_idle,
                  TraceRecorder *trace = nullptr,
                  MetricsRegistry *metrics = nullptr);

    /** Schedule the plan's timed events. Call once, before run(). */
    void arm();

    /**
     * Route a transfer through the fault model: samples the
     * transient-failure probability and, on failure, retries with
     * exponential backoff until the budget runs out (then fatal()).
     * The caller's onComplete fires exactly once, after the first
     * successful attempt.
     */
    FlowId submit(TransferRequest req);

    const FaultCounters &counters() const { return counters_; }
    const FaultPlan &plan() const { return plan_; }

    /** @return true when a retry is scheduled but not yet resubmitted
     *  (the workload is not idle while this holds). */
    bool retryPending() const { return retryPending_ > 0; }

  private:
    /**
     * Schedule an injector-owned event: the callback first drops the
     * event from ownEvents_, then stops everything if the workload
     * has drained, then runs @p fn. The shared_ptr dance lets the
     * callback know its own id.
     */
    void scheduleFault(double when, std::function<void()> fn);

    /** Cancel remaining injector events when the workload is done.
     *  @return true when the caller should not proceed. */
    bool maybeStop();
    void stop();

    void applyFactor(const ResourceRef &target, double factor);
    void openSpan(std::string name, double factor);
    void closeSpan(const std::string &name, double end);

    void armWindow(const FaultWindow &w);
    void armFlap(const FaultFlap &f, double from);
    void armCheckpoint();
    void armCrash(const GpuCrash &c);

    FlowId submitAttempt(TransferRequest req, int attempt,
                         SpanId prev_fail);

    EventQueue &queue_;
    const Topology &topo_;
    TransferEngine &xfer_;
    std::vector<ComputeEngine *> compute_;
    FaultPlan plan_;
    std::function<void(double)> cpuThrottle_;
    std::function<bool()> workloadIdle_;
    TraceRecorder *trace_;

    Rng xfailRng_;   //!< stream 0: per-attempt failure sampling
    Rng backoffRng_; //!< stream 1: retry-backoff jitter
    Rng flapRng_;    //!< stream 2: flap gap sampling

    /** Multiplicative degradation stacks (product of active
     *  windows/flaps), per link and per GPU; 1 = nominal. */
    std::vector<double> linkFactor_;
    std::vector<double> computeFactor_;
    double cpuFactor_ = 1.0;

    /** Open window/flap spans, keyed by an opaque tag, closed when
     *  the window ends (or clamped at stop()). */
    struct OpenSpan
    {
        std::string name;
        double start = 0.0;
        double factor = 1.0;
    };
    std::vector<OpenSpan> openSpans_;

    /** Cancellable injector-owned events (window edges, flap and
     *  checkpoint ticks, crashes). Retry events are NOT here. */
    std::set<EventId> ownEvents_;
    int retryPending_ = 0;
    bool stopped_ = false;
    double lastCheckpoint_ = 0.0;

    FaultCounters counters_;

    Counter *mFailures_ = nullptr;
    Counter *mRetries_ = nullptr;
    Counter *mCrashes_ = nullptr;
    Counter *mCheckpoints_ = nullptr;
    Counter *mWindows_ = nullptr;
    Counter *mBackoffSeconds_ = nullptr;
    Counter *mLostSeconds_ = nullptr;
    Counter *mRecoverySeconds_ = nullptr;
    Counter *mCheckpointSeconds_ = nullptr;
};

} // namespace mobius

#endif // MOBIUS_FAULT_FAULT_INJECTOR_HH
