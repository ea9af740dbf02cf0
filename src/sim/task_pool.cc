#include "sim/task_pool.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>

#include "sim/jobs.hh"

namespace rr::sim
{

namespace
{

/**
 * Pause instructions an idle drain worker spins through before it
 * parks (about 30 µs on a 2.1 GHz Sapphire Rapids guest): long enough
 * to bridge the gap between one replay segment finishing and a peer's
 * release making the next one ready, short enough that a worker with
 * nothing coming soon gives its CPU back. Spinning ten times longer
 * helped no more on a raytrace replay and slowed the busy workers of
 * an lu replay by a third on that guest.
 */
constexpr int kIdleSpinPauses = 2'000;

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

} // namespace

TaskPool::TaskPool(std::uint32_t workers)
    : workers_(resolveJobs(workers)), queues_(workers_)
{
}

void
TaskPool::submit(Task task, std::uint32_t affinity)
{
    {
        std::lock_guard lock(mu_);
        if (cancelled_)
            return;
        queues_[affinity % workers_].push_back(std::move(task));
        ++queued_;
    }
    cv_.notify_one();
}

std::uint64_t
TaskPool::cancelPending()
{
    std::uint64_t dropped;
    {
        std::lock_guard lock(mu_);
        cancelled_ = true;
        dropped = queued_;
        for (auto &q : queues_)
            q.clear();
        queued_ = 0;
    }
    cv_.notify_all();
    return dropped;
}

TaskPool::Task
TaskPool::takeLocked(std::uint32_t worker_index)
{
    // Own queue first, then the oldest task of the nearest busy
    // neighbour.
    for (std::uint32_t i = 0; i < workers_; ++i) {
        std::deque<Task> &q = queues_[(worker_index + i) % workers_];
        if (!q.empty()) {
            Task t = std::move(q.front());
            q.pop_front();
            --queued_;
            return t;
        }
    }
    return {};
}

void
TaskPool::spinWhileIdle() const
{
    for (int i = 0; i < kIdleSpinPauses; ++i) {
        if (queued_.load(std::memory_order_relaxed) != 0 ||
            inflight_.load(std::memory_order_relaxed) == 0)
            return;
        cpuRelax();
    }
}

void
TaskPool::workerLoop(std::uint32_t worker_index, DrainStats &stats)
{
    using clock = std::chrono::steady_clock;
    for (;;) {
        // The spin only delays the locked wait below, which re-checks
        // its predicate before sleeping, so no wake-up can be lost.
        spinWhileIdle();
        std::unique_lock lock(mu_);
        cv_.wait(lock,
                 [this] { return queued_ != 0 || inflight_ == 0; });
        if (queued_ == 0)
            return; // inflight_ == 0: nothing left, nothing coming.
        Task task = takeLocked(worker_index);
        ++inflight_;
        lock.unlock();

        const auto t0 = clock::now();
        task();
        const auto t1 = clock::now();
        stats.workerBusySeconds[worker_index] +=
            std::chrono::duration<double>(t1 - t0).count();
        ++stats.workerTasks[worker_index];

        lock.lock();
        --inflight_;
        const bool done = queued_ == 0 && inflight_ == 0;
        lock.unlock();
        if (done)
            cv_.notify_all(); // release workers parked on "in flight"
        else
            cv_.notify_one(); // a hinted task may await a busy worker
    }
}

TaskPool::DrainStats
TaskPool::drain()
{
    DrainStats stats;
    stats.workerBusySeconds.assign(workers_, 0.0);
    stats.workerTasks.assign(workers_, 0);

    const auto t0 = std::chrono::steady_clock::now();
    if (workers_ == 1) {
        workerLoop(0, stats);
    } else {
        std::vector<std::thread> threads;
        threads.reserve(workers_ - 1);
        for (std::uint32_t w = 1; w < workers_; ++w)
            threads.emplace_back(
                [this, w, &stats] { workerLoop(w, stats); });
        workerLoop(0, stats);
        for (auto &t : threads)
            t.join();
    }
    const auto t1 = std::chrono::steady_clock::now();

    {
        // Re-arm after a cancelled drain so submit() + drain() starts
        // a fresh cycle (no worker is alive to observe the flag now).
        std::lock_guard lock(mu_);
        cancelled_ = false;
    }
    stats.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    for (const std::uint64_t n : stats.workerTasks)
        stats.tasksRun += n;
    return stats;
}

std::uint32_t
parallelFor(std::uint32_t workers, std::size_t count,
            const std::function<void(std::size_t)> &fn)
{
    const auto used = static_cast<std::uint32_t>(
        std::min<std::size_t>(resolveJobs(workers), count));
    std::mutex mu;
    std::size_t failed = count; // lowest index that threw so far
    std::exception_ptr error;
    const auto run = [&](std::size_t i) {
        try {
            fn(i);
        } catch (...) {
            std::lock_guard lock(mu);
            if (i < failed) {
                failed = i;
                error = std::current_exception();
            }
        }
    };
    if (used <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            run(i);
    } else {
        TaskPool pool(used);
        for (std::size_t i = 0; i < count; ++i)
            pool.submit([&run, i] { run(i); },
                        static_cast<std::uint32_t>(i));
        pool.drain();
    }
    if (error)
        std::rethrow_exception(error);
    return used;
}

} // namespace rr::sim
