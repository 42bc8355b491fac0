/**
 * @file
 * Tests for JobPump, the deterministic parallel pump: its fixed-batch
 * replica fan-out JobPump::runAll (the ReplicaRunner tests: thread-
 * count invariance of full simulated runs span for span, complete
 * coverage of the index space, deterministic exception propagation)
 * and the dynamic ready-set contract (FIFO claim order, per-index
 * errors, inline mode).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault_plan.hh"
#include "runtime/api.hh"
#include "simcore/job_pump.hh"

namespace mobius
{
namespace
{

TEST(ReplicaRunner, RunsEveryIndexOnce)
{
    const int n = 37;
    std::vector<std::atomic<int>> hits(n);
    for (auto &h : hits)
        h = 0;
    EXPECT_EQ(JobPump::runAll(n, [&](int i) { ++hits[i]; }, 4), 4);
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(ReplicaRunner, ClampsThreadsToCount)
{
    EXPECT_EQ(JobPump::runAll(3, [](int) {}, 16), 3);
    EXPECT_EQ(JobPump::runAll(0, [](int) {}, 16), 1);
}

TEST(ReplicaRunner, SingleThreadRunsInline)
{
    std::vector<int> order;
    EXPECT_EQ(JobPump::runAll(5, [&](int i) { order.push_back(i); }, 1),
              1);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ReplicaRunner, LowestIndexExceptionWinsAndRestStillRun)
{
    const int n = 12;
    std::vector<std::atomic<int>> hits(n);
    for (auto &h : hits)
        h = 0;
    try {
        JobPump::runAll(
            n,
            [&](int i) {
                ++hits[i];
                if (i == 3 || i == 9)
                    throw std::runtime_error(
                        "replica " + std::to_string(i));
            },
            4);
        FAIL() << "expected runAll to rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "replica 3");
    }
    // A throwing replica never silently skips the others.
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
}

/**
 * The contract the parallel benches lean on, checked on the real
 * simulator: a batch of faulted Mobius steps (distinct seeds per
 * index) produces byte-identical traces — every span, every
 * dependency edge, every counter — no matter how many worker
 * threads dispatch the batch.
 */
TEST(ReplicaRunner, FaultedRunsSpanForSpanIdenticalAcrossThreads)
{
    Server plan_server = makeCommodityServer({2, 2});
    Workload plan_work(gpt8b(), plan_server);
    MobiusPlan plan = planMobius(plan_server, plan_work.cost());

    const int replicas = 6;
    auto batch = [&](int threads) {
        std::vector<std::string> traces(replicas);
        JobPump::runAll(
            replicas,
            [&](int i) {
                Server server = makeCommodityServer({2, 2});
                Workload work(gpt8b(), server);
                FaultPlan fp;
                fp.xfailProb = 0.02;
                fp.retryBudget = 10;
                fp.retryBackoff = 1e-4;
                RunContext ctx(
                    server,
                    {.faults = &fp,
                     .faultSeed = 100 + static_cast<std::uint64_t>(i)});
                MobiusExecutor exec(ctx, work.cost(),
                                    plan.partition, plan.mapping);
                exec.run();
                traces[static_cast<std::size_t>(i)] =
                    ctx.trace().toChromeJson();
            },
            threads);
        return traces;
    };

    std::vector<std::string> serial = batch(1);
    std::vector<std::string> parallel = batch(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (int i = 0; i < replicas; ++i) {
        EXPECT_FALSE(serial[static_cast<std::size_t>(i)].empty());
        EXPECT_EQ(serial[static_cast<std::size_t>(i)],
                  parallel[static_cast<std::size_t>(i)])
            << "replica " << i;
    }
}

TEST(JobPump, InlineModeRunsPendingJobsInEnqueueOrderOnWait)
{
    std::vector<std::size_t> order;
    JobPump pump(4, [&](std::size_t i) { order.push_back(i); }, 1);
    EXPECT_EQ(pump.threadsUsed(), 1);
    pump.enqueue(2);
    pump.enqueue(0);
    pump.enqueue(3);
    // Inline mode defers the bodies until the consumer waits...
    EXPECT_TRUE(order.empty());
    // ...then runs the FIFO in enqueue order up to the waited index.
    pump.wait(0);
    EXPECT_EQ(order, (std::vector<std::size_t>{2, 0}));
    pump.enqueue(1);
    pump.drain();
    EXPECT_EQ(order, (std::vector<std::size_t>{2, 0, 3, 1}));
}

TEST(JobPump, ThreadedDynamicEnqueueRunsEveryIndexOnce)
{
    const std::size_t n = 24;
    std::vector<std::atomic<int>> hits(n);
    for (auto &h : hits)
        h = 0;
    JobPump pump(n, [&](std::size_t i) { ++hits[i]; }, 4);
    EXPECT_EQ(pump.threadsUsed(), 4);
    // Grow the ready-set while results are already being consumed —
    // the fleet's arrival-then-admission pattern.
    for (std::size_t i = 0; i < n / 2; ++i)
        pump.enqueue(i);
    pump.wait(3);
    for (std::size_t i = n / 2; i < n; ++i)
        pump.enqueue(i);
    pump.drain();
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(JobPump, CapturesErrorsPerIndexWithoutTearingDown)
{
    const std::size_t n = 8;
    std::atomic<int> ran{0};
    JobPump pump(
        n,
        [&](std::size_t i) {
            ++ran;
            if (i == 2 || i == 5)
                throw std::runtime_error("job " + std::to_string(i));
        },
        3);
    for (std::size_t i = 0; i < n; ++i)
        pump.enqueue(i);
    pump.drain();
    EXPECT_EQ(ran, static_cast<int>(n));
    for (std::size_t i = 0; i < n; ++i) {
        std::exception_ptr err = pump.error(i);
        if (i == 2 || i == 5) {
            ASSERT_TRUE(err) << "index " << i;
            try {
                std::rethrow_exception(err);
            } catch (const std::runtime_error &e) {
                EXPECT_EQ(std::string(e.what()),
                          "job " + std::to_string(i));
            }
        } else {
            EXPECT_FALSE(err) << "index " << i;
        }
    }
}

TEST(JobPump, ClampsThreadsToIndexSpace)
{
    std::atomic<int> ran{0};
    JobPump pump(3, [&](std::size_t) { ++ran; }, 16);
    EXPECT_EQ(pump.threadsUsed(), 3);
    pump.enqueue(0);
    pump.enqueue(1);
    pump.enqueue(2);
    pump.drain();
    EXPECT_EQ(ran, 3);
}

TEST(JobPump, DestructorCompletesEnqueuedButUnwaitedJobs)
{
    std::vector<std::atomic<int>> hits(6);
    for (auto &h : hits)
        h = 0;
    {
        JobPump pump(6, [&](std::size_t i) { ++hits[i]; }, 2);
        for (std::size_t i = 0; i < 6; ++i)
            pump.enqueue(i);
        // No wait/drain: the destructor must still deliver them all.
    }
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(JobPumpDeathTest, MisusePanics)
{
    // Earlier tests in this binary spawn threads; fork from a clean
    // re-exec instead of the fast in-process fork.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // Waiting on a never-enqueued index could never return.
    EXPECT_DEATH(
        {
            JobPump pump(2, [](std::size_t) {}, 1);
            pump.wait(0);
        },
        "never enqueued");
    // Each index may be enqueued at most once.
    EXPECT_DEATH(
        {
            JobPump pump(2, [](std::size_t) {}, 1);
            pump.enqueue(1);
            pump.enqueue(1);
        },
        "");
    // Out-of-range indices are a caller bug, not a silent no-op.
    EXPECT_DEATH(
        {
            JobPump pump(2, [](std::size_t) {}, 1);
            pump.enqueue(2);
        },
        "");
}

} // namespace
} // namespace mobius
