/**
 * @file
 * Parallel experiment engine. A SweepRunner executes a batch of
 * independent jobs — typically whole Machine recordings of an
 * app x core-count x policy-set sweep — across a bounded pool of host
 * threads, with results collected in submission order. Every job is
 * self-contained (each builds its own Machine, which shares no mutable
 * state with other instances), so the outputs are bit-identical for
 * any worker count; only the wall clock changes.
 */

#ifndef RR_SIM_SWEEP_HH
#define RR_SIM_SWEEP_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "sim/stats.hh"

namespace rr::sim
{

/** Aggregate timing of one SweepRunner::run() batch. */
struct SweepStats
{
    double wallSeconds = 0.0;
    std::uint64_t jobsRun = 0;
    std::uint32_t workers = 0;
    /** Simulated instructions reported via countInstructions(). */
    std::uint64_t totalInstructions = 0;

    /** Simulated-instruction throughput of the whole batch. */
    double
    instructionsPerSecond() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(totalInstructions) / wallSeconds
                   : 0.0;
    }
};

class SweepRunner
{
  public:
    using Job = std::function<void()>;

    /**
     * @param workers Host threads to run jobs on; 0 picks the hardware
     *        concurrency. One worker runs every job inline on the
     *        calling thread.
     */
    explicit SweepRunner(std::uint32_t workers = 0);

    std::uint32_t workers() const { return workers_; }

    /** Queue a job for the next run(). Jobs must be independent. */
    void enqueue(Job job);

    /** Same, with a label used by trace events ("sweep" track). */
    void enqueue(std::string label, Job job);

    std::size_t pending() const { return jobs_.size(); }

    /**
     * Run every queued job to completion with at most workers() jobs in
     * flight, then clear the queue. Jobs start in submission order;
     * completion order is unspecified, so jobs must write their results
     * into caller-owned, per-job slots (see sweepMap).
     */
    SweepStats run();

    /** Stats of the most recent run(). */
    const SweepStats &lastStats() const { return lastStats_; }

    /**
     * Thread-safe accumulation of simulated instructions into the
     * current run's throughput stats; call from inside jobs.
     */
    void
    countInstructions(std::uint64_t n)
    {
        instructions_.fetch_add(n, std::memory_order_relaxed);
    }

    /**
     * Thread-safe merge of a finished job's StatSet into the batch-wide
     * aggregate (counters add, scalars/histograms combine); call from
     * inside jobs. The aggregate survives run() for later export.
     */
    void accumulateStats(const StatSet &s);

    /** Batch-wide aggregate built by accumulateStats(). */
    const StatSet &aggregatedStats() const { return aggregated_; }

  private:
    struct QueuedJob
    {
        std::string label;
        Job fn;
    };

    void runJob(std::size_t index, std::uint32_t worker,
                std::chrono::steady_clock::time_point run_start);

    std::uint32_t workers_;
    std::vector<QueuedJob> jobs_;
    std::atomic<std::uint64_t> instructions_{0};
    SweepStats lastStats_;
    std::mutex statsMutex_;
    StatSet aggregated_{"sweep"};
};

/**
 * Map @p count job indices through @p fn concurrently; the result
 * vector is indexed like the inputs regardless of execution order.
 * @p fn receives the index.
 */
template <typename R, typename Fn>
std::vector<R>
sweepMap(SweepRunner &runner, std::size_t count, Fn fn)
{
    std::vector<R> out(count);
    for (std::size_t i = 0; i < count; ++i)
        runner.enqueue([&out, fn, i] { out[i] = fn(i); });
    runner.run();
    return out;
}

} // namespace rr::sim

#endif // RR_SIM_SWEEP_HH
