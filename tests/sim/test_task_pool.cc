#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/task_pool.hh"

namespace
{

using rr::sim::parallelFor;
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
        pool.submit([&ran, i] { ++ran[i]; }, static_cast<std::uint32_t>(i));
    const auto stats = pool.drain();
    EXPECT_EQ(stats.tasksRun, 100u);
    for (const auto &r : ran)
        EXPECT_EQ(r.load(), 1);
}

TEST(TaskPool, SubmitFromInsideATask)
{
    // A chain submitted link by link from inside the pool, each link
    // hinted at the next worker: drain() must not return until the
    // whole chain ran.
    TaskPool pool(4);
    std::atomic<int> depth{0};
    std::function<void(int)> link = [&](int d) {
        ++depth;
        if (d < 50)
            pool.submit([&link, d] { link(d + 1); },
                        static_cast<std::uint32_t>(d));
    };
    pool.submit([&link] { link(1); }, 0);
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
        for (int i = 0; i < kBurst; ++i)
            pool.submit([&ran] { ++ran; }, static_cast<std::uint32_t>(i));
        pool.submit([&step, round] { step(round + 1); },
                    static_cast<std::uint32_t>(round));
    };
    for (int cycle = 0; cycle < 3; ++cycle) {
        ran = 0;
        pool.submit([&step] { step(0); }, 0);
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
    pool.submit([&runner] { runner = std::this_thread::get_id(); }, 0);
    pool.drain();
    EXPECT_TRUE(runner == std::this_thread::get_id());
}

TEST(TaskPool, CancelPendingDropsQueuedTasks)
{
    TaskPool pool(1); // inline: deterministic ordering
    std::atomic<int> ran{0};
    for (int i = 0; i < 10; ++i) {
        pool.submit(
            [&] {
                if (++ran == 3)
                    pool.cancelPending();
            },
            0);
    }
    pool.drain();
    EXPECT_EQ(ran.load(), 3);

    // The pool is reusable and the cancel flag resets on drain().
    pool.submit([&] { ++ran; }, 0);
    pool.drain();
    EXPECT_EQ(ran.load(), 4);
}

TEST(TaskPool, DrainStatsCoverEveryWorker)
{
    TaskPool pool(3);
    for (int i = 0; i < 30; ++i)
        pool.submit([] {}, static_cast<std::uint32_t>(i));
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

TEST(TaskPool, AffinityOnSingleWorkerRunsInline)
{
    TaskPool pool(1);
    std::thread::id runner;
    pool.submit([&runner] { runner = std::this_thread::get_id(); }, 5);
    EXPECT_EQ(pool.drain().tasksRun, 1u);
    EXPECT_TRUE(runner == std::this_thread::get_id());
}

TEST(TaskPool, ParallelForResultsLandByIndex)
{
    for (const std::uint32_t workers : {1u, 4u}) {
        std::vector<std::size_t> out(100);
        EXPECT_EQ(parallelFor(workers, out.size(),
                              [&out](std::size_t i) { out[i] = i * i; }),
                  workers);
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], i * i) << workers << " workers";
    }
}

TEST(TaskPool, ParallelForRunsEveryTaskAndRethrowsTheLowestIndex)
{
    std::atomic<int> ran{0};
    try {
        parallelFor(4, 16, [&ran](std::size_t i) {
            ++ran;
            if (i == 3) {
                // Let task 7 throw first: the index decides, not time.
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
                throw std::runtime_error("task 3");
            }
            if (i == 7)
                throw std::runtime_error("task 7");
        });
        ADD_FAILURE() << "parallelFor did not rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()), "task 3");
    }
    EXPECT_EQ(ran.load(), 16);
}

TEST(TaskPool, ParallelForOnOneWorkerRunsOnTheCallingThread)
{
    // One worker asked for, or one task to run: no thread is started.
    for (const auto &[workers, count] :
         {std::pair<std::uint32_t, std::size_t>{1, 8}, {4, 1}}) {
        std::vector<std::thread::id> runner(count);
        EXPECT_EQ(parallelFor(workers, count,
                              [&runner](std::size_t i) {
                                  runner[i] = std::this_thread::get_id();
                              }),
                  1u);
        for (const std::thread::id &id : runner)
            EXPECT_TRUE(id == std::this_thread::get_id());
    }
}

TEST(TaskPool, ParallelForOfNothingRunsNothing)
{
    int ran = 0;
    EXPECT_EQ(parallelFor(4, 0, [&ran](std::size_t) { ++ran; }), 0u);
    EXPECT_EQ(parallelFor(0, 0, [&ran](std::size_t) { ++ran; }), 0u);
    EXPECT_EQ(ran, 0);
}

TEST(TaskPool, ParallelForStartsNoMoreWorkersThanTasks)
{
    std::mutex mu;
    std::set<std::thread::id> threads;
    EXPECT_EQ(parallelFor(64, 3,
                          [&](std::size_t) {
                              std::this_thread::sleep_for(
                                  std::chrono::milliseconds(2));
                              std::lock_guard lock(mu);
                              threads.insert(std::this_thread::get_id());
                          }),
              3u);
    EXPECT_GE(threads.size(), 1u);
    EXPECT_LE(threads.size(), 3u);
}

} // namespace
