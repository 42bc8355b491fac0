/**
 * @file
 * Simulated CPU-side optimizer (ZeRO-Offload-style delayed Adam).
 *
 * Mobius and DeepSpeed both keep FP32 master weights and Adam
 * moments in DRAM and run the update on the CPU against the FP16
 * gradients the GPUs flush out (§3.1). This models that stage: apply
 * requests are serialised on the host and each takes
 * params / throughput seconds. Updates overlap the remaining GPU
 * work of the step (gradients arrive stage by stage), but a slow CPU
 * lengthens the step tail — the `cpu-optimizer` ablation quantifies
 * it.
 *
 * Disabled by default (throughput 0) so the communication-focused
 * experiments match the paper's setup, where the optimizer cost is
 * outside the measured window.
 */

#ifndef MOBIUS_RUNTIME_CPU_OPTIMIZER_HH
#define MOBIUS_RUNTIME_CPU_OPTIMIZER_HH

#include <cstdint>
#include <deque>
#include <functional>

#include "base/logging.hh"
#include "simcore/event_queue.hh"
#include "simcore/trace.hh"

namespace mobius
{

/** Serialised CPU Adam applier. */
class CpuOptimizer
{
  public:
    /**
     * @param throughput parameters updated per second; 0 disables
     *                   the model (apply() completes immediately).
     *                   fatal() when negative or NaN.
     */
    CpuOptimizer(EventQueue &queue, double throughput,
                 TraceRecorder *trace = nullptr)
        : queue_(queue), throughput_(throughput), trace_(trace)
    {
        if (!(throughput >= 0.0))
            fatal("CPU-Adam throughput must be >= 0 params/s "
                  "(0 disables it), got %g",
                  throughput);
    }

    /** @return true when a CPU-update cost model is configured. */
    bool enabled() const { return throughput_ > 0.0; }

    /**
     * Queue an update of @p params parameters. @p deps names the
     * spans (typically the gradient flushes) that made this update
     * runnable; @p stage is the pipeline stage being updated.
     */
    void
    apply(std::uint64_t params, std::string label = "adam",
          std::vector<SpanId> deps = {}, int stage = -1)
    {
        if (!enabled())
            return;
        tasks_.push_back(
            Task{static_cast<double>(params) / throughput_,
                 std::move(label), std::move(deps), stage,
                 queue_.now()});
        if (!busy_)
            startNext();
    }

    /**
     * Set the fault-injection throttle: updates *started* from now
     * on run for duration / @p factor seconds (CPU jitter windows,
     * fault/fault_injector.hh).
     */
    void
    setThrottle(double factor)
    {
        if (!(factor > 0.0))
            panic("optimizer throttle must be > 0, got %g", factor);
        throttle_ = factor;
    }

    /** Total seconds the (simulated) CPU spent applying updates. */
    double busyTime() const { return busyTime_; }
    bool idle() const { return !busy_ && tasks_.empty(); }

  private:
    struct Task
    {
        double duration;
        std::string label;
        std::vector<SpanId> deps;
        int stage = -1;
        SimTime queuedAt = -1.0;
    };

    void
    startNext()
    {
        if (busy_ || tasks_.empty())
            return;
        busy_ = true;
        Task task = std::move(tasks_.front());
        tasks_.pop_front();
        double effective = task.duration / throttle_;
        busyTime_ += effective;
        double start = queue_.now();
        queue_.scheduleAfter(
            effective,
            [this, start, label = std::move(task.label),
             deps = std::move(task.deps), stage = task.stage,
             queuedAt = task.queuedAt, work = task.duration] {
                if (trace_) {
                    TraceSpan s;
                    s.track = "cpu.optim";
                    s.name = label;
                    s.category = "optimizer";
                    s.start = start;
                    s.end = queue_.now();
                    s.deps = deps;
                    s.queuedAt = queuedAt;
                    // Jitter-stretched updates keep intrinsic work
                    // so the slowdown reads as contention.
                    if (queue_.now() - start > work)
                        s.work = work;
                    s.stage = stage;
                    trace_->record(std::move(s));
                }
                busy_ = false;
                startNext();
            });
    }

    EventQueue &queue_;
    double throughput_;
    TraceRecorder *trace_;
    double throttle_ = 1.0;
    bool busy_ = false;
    double busyTime_ = 0.0;
    std::deque<Task> tasks_;
};

} // namespace mobius

#endif // MOBIUS_RUNTIME_CPU_OPTIMIZER_HH
