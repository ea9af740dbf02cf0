/**
 * @file
 * The process's one thread pool, and parallelFor() on top of it.
 *
 * TaskPool runs tasks that may become runnable while the pool is
 * draining, because finishing one interval unblocks its DAG
 * successors: submit() is callable from inside a running task, and
 * drain() returns when every queue is empty and no task is in flight.
 * parallelFor() is the other shape, a fixed list of independent tasks
 * (sweep recordings, bench post-processing): it submits them all and
 * drains once.
 *
 * Each worker has its own queue; a task names the worker it prefers
 * and an idle worker steals from its neighbours' queues. workers == 0
 * means all hardware threads, and a single-worker pool executes inline
 * on the draining thread (no spawn), which keeps `--jobs 1` runs
 * trivially deterministic and sanitizer-quiet.
 *
 * In a drain, an idle worker spins for a bounded while before it
 * parks on the condition variable: the next task of a DAG drain
 * usually appears within microseconds, when a peer releases a
 * successor, and a futex sleep and wake-up costs far more than that.
 */

#ifndef RR_SIM_TASK_POOL_HH
#define RR_SIM_TASK_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

namespace rr::sim
{

class TaskPool
{
  public:
    using Task = std::function<void()>;

    /** @param workers Worker threads; 0 = all hardware threads. */
    explicit TaskPool(std::uint32_t workers = 0);

    std::uint32_t workers() const { return workers_; }

    /**
     * Enqueue a task on worker `affinity % workers()`'s queue. It runs
     * there unless that worker falls idle last — idle workers steal
     * from other workers' queues, so a hint can delay a task but never
     * strand it. The parallel replayer hints with the interval's core
     * id, which keeps a core's chain (and its page cache) on a stable
     * worker. Thread-safe; callable both before drain() and from
     * inside a running task. Dropped silently after cancelPending()
     * (the flag re-arms when the cancelled drain() returns).
     */
    void submit(Task task, std::uint32_t affinity);

    /**
     * Drop every queued-but-not-started task and refuse new submits
     * for the remainder of the drain (stop-the-world after a replay
     * divergence); in-flight tasks run to completion. Returns the
     * number of tasks dropped.
     */
    std::uint64_t cancelPending();

    /** What one drain() did, for utilization stats. */
    struct DrainStats
    {
        double wallSeconds = 0.0;
        std::uint64_t tasksRun = 0;
        /** Sum of task run times per worker. */
        std::vector<double> workerBusySeconds;
        std::vector<std::uint64_t> workerTasks;
    };

    /**
     * Run tasks until every queue is empty and none is in flight, then
     * return. Spawns workers() - 1 threads and participates itself
     * (inline execution when workers() == 1). Tasks must not throw —
     * engines convert failures into state + cancelPending(). The pool
     * is reusable: a later submit() + drain() starts a fresh cycle.
     */
    DrainStats drain();

  private:
    void workerLoop(std::uint32_t worker_index, DrainStats &stats);
    /** Spin until a drain worker has something to do, or give up. */
    void spinWhileIdle() const;
    /** Pop the next task for @p worker_index; caller holds mu_ and
     *  guarantees queued_ != 0. */
    Task takeLocked(std::uint32_t worker_index);

    const std::uint32_t workers_;

    std::mutex mu_;
    std::condition_variable cv_;
    /** One queue per worker; queued_ counts them all. */
    std::vector<std::deque<Task>> queues_;
    // Written only under mu_, so the wait predicates stay exact; atomic
    // so that spinWhileIdle() can read them without the lock.
    std::atomic<std::uint64_t> queued_{0};
    std::atomic<std::uint32_t> inflight_{0};
    bool cancelled_ = false;
};

/**
 * Call @p fn(i) for every i < @p count on a TaskPool of
 * min(resolveJobs(workers), count) workers, or on the calling thread
 * when that is 1. Tasks must be independent and write only their own
 * slots. Every task runs even after one throws; once all have
 * finished, the exception of the lowest index that threw is rethrown.
 * Returns the number of workers used (0 when @p count is 0).
 */
std::uint32_t parallelFor(std::uint32_t workers, std::size_t count,
                          const std::function<void(std::size_t)> &fn);

} // namespace rr::sim

#endif // RR_SIM_TASK_POOL_HH
