/**
 * @file
 * Discrete-event simulation core.
 *
 * The engine keeps a time-ordered queue of callbacks. Components (copy
 * engines, compute engines, the fluid-flow rate solver) schedule events
 * at absolute simulated times; ties are broken by insertion order so the
 * simulation is fully deterministic. Events can be cancelled — the
 * transfer engine reschedules flow-completion events whenever the
 * fair-share rate of any in-flight flow changes — so cancel is as hot
 * a path as schedule.
 *
 * The queue is an **indexed binary min-heap**: 24-byte ordering keys
 * live in one contiguous array ordered by (time, schedule sequence),
 * and a handle table maps every EventId to its current heap slot so
 * cancel() can remove an arbitrary pending event in O(log n) without
 * scanning. Callbacks are parked in the handle table, so sift
 * operations move only trivially-copyable keys.
 * schedule(), cancel(), and each pop in run() are all O(log n) with
 * no per-event node allocation (the `std::map`-backed original, kept
 * as the test oracle ReferenceEventQueue in tests/oracles, paid two
 * red-black-tree inserts plus two erases per event; bench_simcore
 * tracks the speedup).
 *
 * Tie-break contract: events scheduled at equal times fire in
 * schedule() call order, globally — the comparison key is the pair
 * (when, seq) where seq is a monotonically increasing per-queue
 * counter stamped at schedule() time. Cancelling and re-scheduling an
 * event therefore moves it to the *back* of its time tick, exactly as
 * the reference implementation did. Handles are recycled through a
 * free list but carry a generation counter, so a stale EventId (fired
 * or cancelled) can never cancel a later event that reuses its slot.
 */

#ifndef MOBIUS_SIMCORE_EVENT_QUEUE_HH
#define MOBIUS_SIMCORE_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <vector>

namespace mobius
{

/** Simulated time in seconds. */
using SimTime = double;

/** Handle used to cancel a scheduled event. 0 is "no event". */
using EventId = std::uint64_t;

/** The null event handle. */
constexpr EventId kNoEvent = 0;

/**
 * A deterministic discrete-event queue.
 *
 * Events at equal times fire in the order they were scheduled.
 */
class EventQueue
{
  public:
    /** An empty queue at time 0. */
    EventQueue() = default;

    /** @return the current simulated time in seconds. */
    SimTime now() const { return now_; }

    /**
     * Schedule @p fn at absolute time @p when (>= now()).
     * @return a handle usable with cancel().
     */
    EventId schedule(SimTime when, std::function<void()> fn);

    /** Schedule @p fn @p delay seconds from now. */
    EventId
    scheduleAfter(SimTime delay, std::function<void()> fn)
    {
        return schedule(now_ + delay, std::move(fn));
    }

    /**
     * Cancel a pending event.
     * @return true if the event existed and was removed.
     */
    bool cancel(EventId id);

    /** @return true if no events are pending. */
    bool empty() const { return heap_.empty(); }

    /** @return number of pending events. */
    std::size_t pending() const { return heap_.size(); }

    /** Fire events until the queue is empty. */
    void run();

    /**
     * Fire events with time <= @p until, then advance the clock to
     * @p until (even if the queue empties earlier).
     */
    void runUntil(SimTime until);

    /** @return total number of events ever executed. */
    std::uint64_t executed() const { return executed_; }

    /**
     * @return number of schedule() calls whose target time slid
     *         behind now() (within tolerance) and was clamped.
     */
    std::uint64_t clamped() const { return clamped_; }

    /**
     * @return the largest backslide ever clamped, in seconds —
     *         a measure of accumulated floating-point drift in the
     *         fluid-flow solver's completion-time arithmetic.
     */
    SimTime maxDrift() const { return maxDrift_; }

    /** Pre-size the heap for @p n pending events. */
    void
    reserve(std::size_t n)
    {
        heap_.reserve(n);
        handles_.reserve(n);
    }

  private:
    /**
     * One pending event's ordering key, stored inline in the heap
     * array. Deliberately a 24-byte POD: sift operations shuffle
     * these, so the callback lives in the handle table and never
     * moves while its event waits.
     */
    struct Entry
    {
        SimTime when = 0.0;        //!< absolute firing time
        std::uint64_t seq = 0;     //!< global schedule order (ties)
        std::uint32_t handle = 0;  //!< index into handles_
    };

    /** Handle-table slot: the callback and where its entry lives. */
    struct Handle
    {
        std::uint32_t gen = 0;  //!< bumped on fire/cancel
        std::int32_t slot = -1; //!< heap index, -1 = not pending
        std::function<void()> fn; //!< the callback (cleared on release)
    };

    /** Heap order: earliest time first, schedule order within ties. */
    static bool
    before(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    std::uint32_t allocHandle();
    void releaseHandle(std::uint32_t idx);
    void siftUp(std::size_t slot);
    void siftDown(std::size_t slot);
    /** Move the top entry's callback out and delete the entry. */
    std::function<void()> popTop();

    SimTime now_ = 0.0;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t executed_ = 0;
    std::uint64_t clamped_ = 0;
    SimTime maxDrift_ = 0.0;
    std::vector<Entry> heap_;
    std::vector<Handle> handles_;
    std::vector<std::uint32_t> freeHandles_;
};

} // namespace mobius

#endif // MOBIUS_SIMCORE_EVENT_QUEUE_HH
