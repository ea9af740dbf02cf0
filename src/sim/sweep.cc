#include "sim/sweep.hh"

#include <chrono>
#include <thread>

#include "sim/jobs.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace rr::sim
{

SweepRunner::SweepRunner(std::uint32_t workers)
    : workers_(resolveJobs(workers))
{
}

void
SweepRunner::enqueue(Job job)
{
    jobs_.push_back(QueuedJob{std::string(), std::move(job)});
}

void
SweepRunner::enqueue(std::string label, Job job)
{
    jobs_.push_back(QueuedJob{std::move(label), std::move(job)});
}

void
SweepRunner::accumulateStats(const StatSet &s)
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    aggregated_.mergeFrom(s);
}

void
SweepRunner::runJob(std::size_t index, std::uint32_t worker,
                    std::chrono::steady_clock::time_point run_start)
{
    if (!TraceSink::enabled()) {
        jobs_[index].fn();
        return;
    }
    // Sweep-track timestamps are wall microseconds since run() started
    // (not simulated cycles; the two pids use different clocks).
    const auto wall_us = [run_start](std::chrono::steady_clock::time_point tp) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                tp - run_start)
                .count());
    };
    const std::uint64_t t0 = wall_us(std::chrono::steady_clock::now());
    jobs_[index].fn();
    const std::uint64_t t1 = wall_us(std::chrono::steady_clock::now());
    const std::string &label = jobs_[index].label;
    TraceSink::get()->complete(
        TraceSink::kSweepPid, worker, "sweep",
        label.empty() ? strfmt("job%llu",
                               static_cast<unsigned long long>(index))
                      : label,
        t0, t1 - t0,
        {{"job", static_cast<std::uint64_t>(index)}});
}

SweepStats
SweepRunner::run()
{
    const auto start = std::chrono::steady_clock::now();
    instructions_.store(0, std::memory_order_relaxed);

    const std::size_t n = jobs_.size();
    const std::uint32_t active = static_cast<std::uint32_t>(
        std::min<std::size_t>(workers_, n));

    if (active <= 1) {
        // Inline execution: zero threading overhead, and the natural
        // reference ordering for determinism comparisons.
        for (std::size_t i = 0; i < n; ++i)
            runJob(i, 0, start);
    } else {
        std::atomic<std::size_t> next{0};
        auto worker = [&](std::uint32_t wid) {
            for (;;) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    return;
                runJob(i, wid, start);
            }
        };
        std::vector<std::thread> pool;
        pool.reserve(active);
        for (std::uint32_t t = 0; t < active; ++t)
            pool.emplace_back(worker, t);
        for (auto &t : pool)
            t.join();
    }

    jobs_.clear();
    const auto end = std::chrono::steady_clock::now();
    lastStats_.wallSeconds =
        std::chrono::duration<double>(end - start).count();
    lastStats_.jobsRun = n;
    lastStats_.workers = active == 0 ? 1 : active;
    lastStats_.totalInstructions =
        instructions_.load(std::memory_order_relaxed);
    return lastStats_;
}

} // namespace rr::sim
