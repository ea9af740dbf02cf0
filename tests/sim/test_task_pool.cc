#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "sim/task_pool.hh"

namespace
{

using rr::sim::TaskPool;

TEST(TaskPool, DrainOnEmptyQueueReturnsImmediately)
{
    TaskPool pool(4);
    const auto stats = pool.drain();
    EXPECT_EQ(stats.tasksRun, 0u);
}

TEST(TaskPool, RunsEveryTaskExactlyOnce)
{
    TaskPool pool(4);
    std::vector<std::atomic<int>> ran(100);
    for (auto &r : ran)
        r = 0;
    for (int i = 0; i < 100; ++i)
        pool.submit([&ran, i] { ++ran[i]; });
    const auto stats = pool.drain();
    EXPECT_EQ(stats.tasksRun, 100u);
    for (const auto &r : ran)
        EXPECT_EQ(r.load(), 1);
}

TEST(TaskPool, SubmitFromInsideATask)
{
    // A chain submitted link by link from inside the pool: drain()
    // must not return until the whole chain ran.
    TaskPool pool(4);
    std::atomic<int> depth{0};
    std::function<void(int)> link = [&](int d) {
        ++depth;
        if (d < 50)
            pool.submit([&link, d] { link(d + 1); });
    };
    pool.submit([&link] { link(1); });
    const auto stats = pool.drain();
    EXPECT_EQ(depth.load(), 50);
    EXPECT_EQ(stats.tasksRun, 50u);
}

TEST(TaskPool, DrainSurvivesIdleGapsBetweenSubmitBursts)
{
    // Idle drain workers spin, then park. A chain of tasks alternates
    // idle gaps — short ones that land while peers still spin, long
    // ones that let them park — with bursts submitted from inside the
    // pool, so submits and the final hand-off hit workers in every
    // phase. A wake-up lost between spinning and parking would leave
    // work queued behind parked workers and hang this test.
    TaskPool pool(4);
    constexpr int kRounds = 40, kBurst = 16;
    std::atomic<int> ran{0};
    std::function<void(int)> step = [&](int round) {
        ++ran;
        if (round == kRounds)
            return;
        std::this_thread::sleep_for(
            std::chrono::microseconds(round % 2 ? 3000 : 20));
        for (int i = 0; i < kBurst; ++i) {
            if (i % 2)
                pool.submit([&ran] { ++ran; });
            else
                pool.submit([&ran] { ++ran; },
                            static_cast<std::uint32_t>(i));
        }
        pool.submit([&step, round] { step(round + 1); });
    };
    for (int cycle = 0; cycle < 3; ++cycle) {
        ran = 0;
        pool.submit([&step] { step(0); });
        const auto stats = pool.drain();
        EXPECT_EQ(ran.load(), kRounds * (kBurst + 1) + 1);
        EXPECT_EQ(stats.tasksRun,
                  static_cast<std::uint64_t>(kRounds * (kBurst + 1) + 1));
    }
}

TEST(TaskPool, SingleWorkerRunsInline)
{
    TaskPool pool(1);
    EXPECT_EQ(pool.workers(), 1u);
    std::thread::id runner;
    pool.submit([&runner] { runner = std::this_thread::get_id(); });
    pool.drain();
    EXPECT_TRUE(runner == std::this_thread::get_id());
}

TEST(TaskPool, CancelPendingDropsQueuedTasks)
{
    TaskPool pool(1); // inline: deterministic ordering
    std::atomic<int> ran{0};
    for (int i = 0; i < 10; ++i) {
        pool.submit([&] {
            if (++ran == 3)
                pool.cancelPending();
        });
    }
    pool.drain();
    EXPECT_EQ(ran.load(), 3);

    // The pool is reusable and the cancel flag resets on drain().
    pool.submit([&] { ++ran; });
    pool.drain();
    EXPECT_EQ(ran.load(), 4);
}

TEST(TaskPool, DrainStatsCoverEveryWorker)
{
    TaskPool pool(3);
    for (int i = 0; i < 30; ++i)
        pool.submit([] {});
    const auto stats = pool.drain();
    ASSERT_EQ(stats.workerBusySeconds.size(), 3u);
    ASSERT_EQ(stats.workerTasks.size(), 3u);
    std::uint64_t sum = 0;
    for (const auto t : stats.workerTasks)
        sum += t;
    EXPECT_EQ(sum, 30u);
    EXPECT_EQ(stats.tasksRun, 30u);
    EXPECT_GT(stats.wallSeconds, 0.0);
}

TEST(TaskPool, ZeroMeansAllHardwareThreads)
{
    TaskPool pool(0);
    EXPECT_GE(pool.workers(), 1u);
}

TEST(TaskPool, AffinityTasksAllRunExactlyOnce)
{
    TaskPool pool(4);
    std::vector<std::atomic<int>> ran(100);
    for (auto &r : ran)
        r = 0;
    for (int i = 0; i < 100; ++i)
        pool.submit([&ran, i] { ++ran[i]; },
                    static_cast<std::uint32_t>(i % 7));
    const auto stats = pool.drain();
    EXPECT_EQ(stats.tasksRun, 100u);
    for (const auto &r : ran)
        EXPECT_EQ(r.load(), 1);
}

TEST(TaskPool, AffinityHintNeverStrandsTasks)
{
    // Every task hints at the same worker; idle workers must steal
    // from its local queue rather than let the backlog serialize.
    TaskPool pool(4);
    std::atomic<int> ran{0};
    for (int i = 0; i < 48; ++i)
        pool.submit(
            [&ran] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
                ++ran;
            },
            0);
    const auto stats = pool.drain();
    EXPECT_EQ(ran.load(), 48);
    std::uint32_t busy_workers = 0;
    for (const auto t : stats.workerTasks)
        busy_workers += t != 0;
    EXPECT_GT(busy_workers, 1u);
}

TEST(TaskPool, AffinitySubmitFromInsideATask)
{
    // A per-"core" chain submitted link by link with a stable hint —
    // the parallel replayer's same-core continuation pattern.
    TaskPool pool(4);
    std::array<std::atomic<int>, 3> depth{};
    std::function<void(std::uint32_t, int)> link =
        [&](std::uint32_t core, int d) {
            ++depth[core];
            if (d < 40)
                pool.submit([&link, core, d] { link(core, d + 1); },
                            core);
        };
    for (std::uint32_t core = 0; core < 3; ++core)
        pool.submit([&link, core] { link(core, 1); }, core);
    const auto stats = pool.drain();
    EXPECT_EQ(stats.tasksRun, 3u * 40u);
    for (const auto &d : depth)
        EXPECT_EQ(d.load(), 40);
}

TEST(TaskPool, MixedPlainAndAffinitySubmits)
{
    TaskPool pool(3);
    std::atomic<int> ran{0};
    for (int i = 0; i < 60; ++i) {
        if (i % 2 == 0)
            pool.submit([&ran] { ++ran; });
        else
            pool.submit([&ran] { ++ran; },
                        static_cast<std::uint32_t>(i));
    }
    EXPECT_EQ(pool.drain().tasksRun, 60u);
    EXPECT_EQ(ran.load(), 60);
}

TEST(TaskPool, AffinityOnSingleWorkerRunsInline)
{
    TaskPool pool(1);
    std::thread::id runner;
    pool.submit([&runner] { runner = std::this_thread::get_id(); }, 5);
    EXPECT_EQ(pool.drain().tasksRun, 1u);
    EXPECT_TRUE(runner == std::this_thread::get_id());
}

// --- service mode (the replay daemon's executor shape) ----------------

TEST(TaskPool, ServiceModeRunsTasksAcrossIdlePeriods)
{
    TaskPool pool(4);
    pool.start();
    EXPECT_TRUE(pool.serving());
    std::atomic<int> ran{0};
    for (int i = 0; i < 50; ++i)
        pool.submit([&ran] { ++ran; });
    while (pool.serviceTasksRun() < 50)
        std::this_thread::yield();
    // Idle gap, then a second burst: the pool must stay alive.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    for (int i = 0; i < 50; ++i)
        pool.submit([&ran] { ++ran; }, static_cast<std::uint32_t>(i));
    EXPECT_EQ(pool.stop(/*finish_queued=*/true), 0u);
    EXPECT_EQ(ran.load(), 100);
    EXPECT_FALSE(pool.serving());
}

TEST(TaskPool, ServiceStopWithoutFinishDropsQueued)
{
    TaskPool pool(1);
    pool.start();
    std::atomic<bool> release{false};
    std::atomic<int> ran{0};
    pool.submit([&] {
        ++ran;
        while (!release.load())
            std::this_thread::yield();
    });
    // Queue more behind the blocked worker, then abort-stop: the
    // queued tasks are dropped, the in-flight one finishes.
    for (int i = 0; i < 50; ++i)
        pool.submit([&ran] { ++ran; });
    std::thread releaser([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        release = true;
    });
    const std::uint64_t dropped = pool.stop(/*finish_queued=*/false);
    releaser.join();
    EXPECT_EQ(ran.load() + static_cast<int>(dropped), 51);
    EXPECT_GE(dropped, 1u);
}

TEST(TaskPool, CancelPendingDoesNotWedgeServiceMode)
{
    // Regression: cancelPending() used to latch the refuse-submits
    // flag unconditionally. Inside a drain() the latch re-arms when
    // the drain returns, but a serving pool has no drain end — the
    // latch silently dropped every later submit, wedging the daemon
    // after its first cancellation.
    TaskPool pool(2);
    pool.start();
    pool.submit([] {});
    pool.cancelPending();
    std::atomic<bool> ran{false};
    pool.submit([&ran] { ran = true; });
    while (!ran.load())
        std::this_thread::yield();
    pool.stop(true);
    EXPECT_TRUE(ran.load());
}

TEST(TaskPool, ServiceRestartAfterStop)
{
    TaskPool pool(2);
    for (int cycle = 0; cycle < 3; ++cycle) {
        pool.start();
        std::atomic<int> ran{0};
        for (int i = 0; i < 20; ++i)
            pool.submit([&ran] { ++ran; });
        pool.stop(true);
        EXPECT_EQ(ran.load(), 20);
    }
}

TEST(TaskPool, ServiceConcurrentCancelStealShutdown)
{
    // TSan-covered regression for the shutdown/steal/cancel triangle:
    // three submitters spray affinity-hinted tasks across the local
    // deques (forcing steals), a canceller drops pending work
    // concurrently, and the pool is abort-stopped while everything is
    // in flight. Accounting must be airtight: every submitted task
    // either ran or was counted dropped — none lost, none run twice.
    constexpr int kSubmitters = 3;
    constexpr int kPerSubmitter = 200;
    for (int round = 0; round < 10; ++round) {
        TaskPool pool(4);
        pool.start();
        std::atomic<std::uint64_t> ran{0};
        std::atomic<std::uint64_t> cancel_dropped{0};
        std::atomic<bool> go{false};
        std::vector<std::thread> submitters;
        for (int s = 0; s < kSubmitters; ++s) {
            submitters.emplace_back([&, s] {
                while (!go.load())
                    std::this_thread::yield();
                for (int i = 0; i < kPerSubmitter; ++i)
                    pool.submit(
                        [&ran] {
                            ran.fetch_add(1,
                                          std::memory_order_relaxed);
                        },
                        static_cast<std::uint32_t>(i + s));
            });
        }
        std::thread canceller([&] {
            while (!go.load())
                std::this_thread::yield();
            for (int i = 0; i < 25; ++i) {
                cancel_dropped += pool.cancelPending();
                std::this_thread::yield();
            }
        });
        go = true;
        for (auto &t : submitters)
            t.join();
        canceller.join();
        const std::uint64_t stop_dropped = pool.stop(false);
        EXPECT_EQ(ran.load() + cancel_dropped.load() + stop_dropped,
                  static_cast<std::uint64_t>(kSubmitters) *
                      kPerSubmitter)
            << "round " << round;
        EXPECT_EQ(pool.serviceTasksRun(), ran.load());
    }
}

} // namespace
