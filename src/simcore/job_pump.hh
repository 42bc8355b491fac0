/**
 * @file
 * Deterministic parallel pump over a *dynamic* ready-set of jobs.
 *
 * Sensitivity sweeps, goodput curves and bench harnesses run many
 * independent replicas of the simulator (same code, different seed
 * or configuration); each replica builds its own EventQueue, engines
 * and TraceRecorder, so replicas share no mutable state. The fleet
 * simulator needs the same determinism contract but with a ready-set
 * that grows while the consumer is already draining results: jobs
 * become runnable one at a time (as the fleet's arrival process
 * fires) and the consumer needs individual results at
 * scheduler-chosen moments (admission), not one barrier at the end.
 *
 * JobPump serves both shapes:
 *
 *  - the pump is created over a fixed index space [0, count) and a
 *    body callback; enqueue(i) marks index i ready;
 *  - workers claim ready indices in enqueue (FIFO) order and run the
 *    body concurrently; with one thread there are no workers at all
 *    and pending bodies run inline, in enqueue order, when the
 *    consumer waits;
 *  - wait(i) blocks until body(i) has finished; drain() waits for
 *    every enqueued index;
 *  - the body receives only its index, so each job's outputs depend
 *    on the index alone — callers keep results in per-index slots and
 *    read them only after wait(i), so consuming code performs the
 *    same reads in the same order at any thread count (bit-identical
 *    reductions);
 *  - exceptions are captured per index (error(i)) and never tear down
 *    the pump; undelivered jobs still run.
 *
 * Single producer/consumer: enqueue()/wait()/drain() must be called
 * from one thread (the fleet event loop). The body runs on workers.
 *
 * runAll() is the fixed-size batch: enqueue every index, drain, and
 * rethrow the lowest-index error.
 */

#ifndef MOBIUS_SIMCORE_JOB_PUMP_HH
#define MOBIUS_SIMCORE_JOB_PUMP_HH

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mobius
{

/** Deterministic worker pool over a dynamic ready-set (file header). */
class JobPump
{
  public:
    /**
     * @param count   size of the index space; bodies run for indices
     *                in [0, count).
     * @param body    job callback; invoked once per enqueued index,
     *                possibly concurrently from worker threads.
     * @param threads worker threads: 0 = hardware concurrency,
     *                1 = inline mode (no workers; pending jobs run on
     *                the consumer thread inside wait()/drain()).
     *                Always clamped to [1, count].
     */
    JobPump(std::size_t count, std::function<void(std::size_t)> body,
            int threads = 0);

    /** Joins workers; enqueued-but-unwaited jobs still complete. */
    ~JobPump();

    JobPump(const JobPump &) = delete;
    JobPump &operator=(const JobPump &) = delete;

    /**
     * Run @p body(i) for every i in [0, @p count) and return once all
     * have finished. With one thread (or @p count <= 1) the bodies
     * run inline on the calling thread, in index order; otherwise
     * workers claim indices in index order.
     *
     * The body must confine its writes to per-index storage and
     * callers reduce after the call, in index order, so results are
     * bit-identical at any thread count. If any body throws, every
     * other index still runs, and the lowest-index exception is
     * rethrown after all workers join.
     *
     * @param count   number of indices; <= 0 runs nothing.
     * @param body    callback invoked once per index.
     * @param threads worker threads: 0 = hardware concurrency; always
     *                clamped to [1, count].
     * @return the thread count actually used (1 when @p count <= 0).
     */
    static int runAll(int count, const std::function<void(int)> &body,
                      int threads = 0);

    /** @return worker threads in use (1 in inline mode). */
    int threadsUsed() const { return threadsUsed_; }

    /**
     * Mark index @p i ready to run. Each index may be enqueued at
     * most once; out-of-range or repeated indices panic().
     */
    void enqueue(std::size_t i);

    /**
     * Block until body(@p i) has finished (inline mode: run pending
     * jobs, in enqueue order, until it has). panic() when @p i was
     * never enqueued — that wait could never return.
     */
    void wait(std::size_t i);

    /** Wait for every index enqueued so far. */
    void drain();

    /**
     * The exception body(@p i) threw, or nullptr. Meaningful once
     * wait(@p i) (or drain()) returned.
     */
    std::exception_ptr
    error(std::size_t i) const
    {
        return errors_[i];
    }

  private:
    enum class State : std::uint8_t
    {
        Idle,    //!< not yet enqueued
        Ready,   //!< in the FIFO, unclaimed
        Running, //!< a worker is executing the body
        Done,    //!< body returned or threw
    };

    /** Run the body for @p i, capturing any exception. */
    void runBody(std::size_t i);

    /** Worker main loop: claim ready indices FIFO until shutdown. */
    void workerLoop();

    /** Inline mode: run queued jobs in FIFO order until @p i done
     *  (or, with count as sentinel, until the FIFO empties). */
    void runInlineUntil(std::size_t i);

    std::function<void(std::size_t)> body_;
    std::vector<State> states_;
    std::vector<std::exception_ptr> errors_;
    std::vector<std::size_t> fifo_; //!< enqueue-ordered ready list
    std::size_t fifoHead_ = 0;      //!< next unclaimed fifo_ position
    int threadsUsed_ = 1;
    bool stop_ = false;

    mutable std::mutex mu_;
    std::condition_variable readyCv_; //!< workers: work available
    std::condition_variable doneCv_;  //!< consumer: a job finished
    std::vector<std::thread> workers_;
};

} // namespace mobius

#endif // MOBIUS_SIMCORE_JOB_PUMP_HH
