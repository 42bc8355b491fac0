/**
 * @file
 * Unit tests for the discrete-event queue, including a randomized
 * schedule/cancel/run fuzz that holds the indexed-heap EventQueue to
 * the frozen std::map reference implementation, interleaving for
 * interleaving.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "simcore/arrival.hh"
#include "simcore/event_queue.hh"
#include "oracles/event_queue_reference.hh"

namespace mobius
{
namespace
{

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(3.0, [&] { order.push_back(3); });
    q.schedule(1.0, [&] { order.push_back(1); });
    q.schedule(2.0, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, TiesFireInScheduleOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(1.0, [&] { order.push_back(0); });
    q.schedule(1.0, [&] { order.push_back(1); });
    q.schedule(1.0, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool fired = false;
    EventId id = q.schedule(1.0, [&] { fired = true; });
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id)); // second cancel is a no-op
    q.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue q;
    std::vector<double> times;
    q.schedule(1.0, [&] {
        times.push_back(q.now());
        q.scheduleAfter(0.5, [&] { times.push_back(q.now()); });
    });
    q.run();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_DOUBLE_EQ(times[0], 1.0);
    EXPECT_DOUBLE_EQ(times[1], 1.5);
}

TEST(EventQueue, RunUntilStopsAndAdvancesClock)
{
    EventQueue q;
    int count = 0;
    q.schedule(1.0, [&] { ++count; });
    q.schedule(5.0, [&] { ++count; });
    q.runUntil(2.0);
    EXPECT_EQ(count, 1);
    EXPECT_DOUBLE_EQ(q.now(), 2.0);
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, RunUntilPastEmptyAdvancesClock)
{
    EventQueue q;
    q.runUntil(7.5);
    EXPECT_DOUBLE_EQ(q.now(), 7.5);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue q;
    double fired_at = -1.0;
    q.schedule(2.0, [&] {
        q.scheduleAfter(3.0, [&] { fired_at = q.now(); });
    });
    q.run();
    EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(EventQueue, ExecutedCounts)
{
    EventQueue q;
    for (int i = 0; i < 5; ++i)
        q.schedule(i, [] {});
    q.run();
    EXPECT_EQ(q.executed(), 5u);
}

TEST(EventQueue, CancelInsideEvent)
{
    EventQueue q;
    bool late_fired = false;
    EventId late = q.schedule(2.0, [&] { late_fired = true; });
    q.schedule(1.0, [&] { q.cancel(late); });
    q.run();
    EXPECT_FALSE(late_fired);
}

TEST(EventQueue, ToleratesTinyBackslide)
{
    EventQueue q;
    q.schedule(1.0, [&] {
        // Floating-point jitter: schedule "now - tiny"; should clamp.
        q.schedule(q.now() - 1e-12, [] {});
    });
    EXPECT_NO_FATAL_FAILURE(q.run());
}

TEST(EventQueue, StaleIdCannotCancelRecycledSlot)
{
    EventQueue q;
    bool b_fired = false;
    EventId a = q.schedule(1.0, [] {});
    ASSERT_TRUE(q.cancel(a));
    // The freed handle slot is recycled immediately (LIFO free
    // list), so b gets a's low bits with a bumped generation.
    EventId b = q.schedule(2.0, [&] { b_fired = true; });
    EXPECT_NE(a, b);
    EXPECT_FALSE(q.cancel(a)); // stale id must not kill b
    q.run();
    EXPECT_TRUE(b_fired);
}

TEST(EventQueue, FiredIdIsStale)
{
    EventQueue q;
    bool b_fired = false;
    EventId a = q.schedule(1.0, [] {});
    q.run();
    EventId b = q.schedule(2.0, [&] { b_fired = true; });
    EXPECT_NE(a, b);
    EXPECT_FALSE(q.cancel(a));
    q.run();
    EXPECT_TRUE(b_fired);
}

TEST(EventQueue, ReserveKeepsSemantics)
{
    EventQueue q;
    q.reserve(64);
    std::vector<int> order;
    q.schedule(2.0, [&] { order.push_back(2); });
    q.schedule(1.0, [&] { order.push_back(1); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

/**
 * Everything the fuzz driver can observe from one queue: the firing
 * sequence (time, payload), each cancel's return value, and the
 * telemetry counters. Two conforming queues fed the identical script
 * must produce identical logs.
 */
struct FuzzLog
{
    std::vector<std::pair<SimTime, int>> fired;
    std::vector<bool> cancels;
    std::uint64_t executed = 0;
    std::uint64_t clamped = 0;
    SimTime maxDrift = 0.0;
    SimTime finalNow = 0.0;

    bool
    operator==(const FuzzLog &o) const
    {
        return fired == o.fired && cancels == o.cancels &&
            executed == o.executed && clamped == o.clamped &&
            maxDrift == o.maxDrift && finalNow == o.finalNow;
    }
};

/**
 * One randomized script: bursts of schedules on a coarse time grid
 * (so exact ties are common and the (time, schedule order) tie-break
 * actually bites), cancels drawn from *all* ids ever issued (stale
 * ones included), a tiny deliberate backslide to exercise clamping,
 * and partial drains via runUntil between bursts. The RNG is
 * consumed identically for both queue types because every draw
 * happens in this driver, never in a callback.
 */
template <typename Queue>
FuzzLog
runFuzzScript(std::uint64_t seed)
{
    Queue q;
    std::mt19937_64 rng(seed);
    FuzzLog log;
    std::vector<EventId> ids;
    int payload = 0;
    for (int phase = 0; phase < 16; ++phase) {
        for (int k = 0; k < 64; ++k) {
            SimTime when =
                q.now() + 1e-3 * static_cast<double>(rng() % 40);
            int p = payload++;
            ids.push_back(q.schedule(when, [&log, &q, p] {
                log.fired.emplace_back(q.now(), p);
            }));
        }
        if (phase == 7) {
            // One knowingly-late schedule: must clamp, not panic.
            q.schedule(1.0, [&q] {
                q.schedule(q.now() - 1e-12, [] {});
            });
        }
        for (int k = 0; k < 24; ++k)
            log.cancels.push_back(
                q.cancel(ids[rng() % ids.size()]));
        q.runUntil(q.now() +
                   1e-3 * static_cast<double>(rng() % 25));
    }
    q.run();
    log.executed = q.executed();
    log.clamped = q.clamped();
    log.maxDrift = q.maxDrift();
    log.finalNow = q.now();
    return log;
}

TEST(EventQueue, FuzzMatchesReferenceQueue)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        FuzzLog heap = runFuzzScript<EventQueue>(seed);
        FuzzLog ref = runFuzzScript<ReferenceEventQueue>(seed);
        EXPECT_EQ(heap, ref) << "diverged at seed " << seed;
        EXPECT_GT(heap.executed, 0u);
    }
}

TEST(ArrivalProcess, HelperIsDeterministicAndIncreasing)
{
    const std::vector<double> a = poissonArrivalTimes(256, 2.0, 9);
    const std::vector<double> b = poissonArrivalTimes(256, 2.0, 9);
    EXPECT_EQ(a, b);
    double last = 0.0;
    double sum = 0.0;
    for (double t : a) {
        EXPECT_GT(t, last);
        sum += t - last;
        last = t;
    }
    // Mean inter-arrival gap within 3 sigma of 1/rate.
    EXPECT_NEAR(sum / 256.0, 0.5, 3.0 * 0.5 / 16.0);
}

TEST(ArrivalProcess, SeedAndPhaseChangesMatter)
{
    const std::vector<double> a = poissonArrivalTimes(32, 2.0, 9);
    const std::vector<double> b = poissonArrivalTimes(32, 2.0, 10);
    EXPECT_NE(a, b);
    ArrivalProcess phased({{2.0, 0.5}, {8.0, 0.5}}, 9, 0.0);
    EXPECT_NE(a, phased.take(32));
}

TEST(ArrivalProcess, RejectsBadPhases)
{
    EXPECT_THROW(ArrivalProcess({}, 1), FatalError);
    EXPECT_THROW(ArrivalProcess({{0.0, 1.0}}, 1), FatalError);
    EXPECT_THROW(ArrivalProcess({{1.0, -1.0}, {2.0, 1.0}}, 1),
                 FatalError);
    EXPECT_THROW(poissonArrivalTimes(4, -2.0, 1), FatalError);
}

} // namespace
} // namespace mobius
