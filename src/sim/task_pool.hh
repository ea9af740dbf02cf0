/**
 * @file
 * A dynamic task pool for dependency-graph execution.
 *
 * SweepRunner (sweep.hh) runs a *fixed* list of independent jobs; the
 * parallel replayer needs the other shape: tasks that become runnable
 * while the pool is draining, because finishing one interval unblocks
 * its DAG successors. TaskPool supports exactly that — submit() is
 * callable from inside a running task, and drain() returns when the
 * queue is empty and no task is in flight.
 *
 * The pool follows SweepRunner's idioms: workers == 0 means all
 * hardware threads, and a single-worker pool executes inline on the
 * draining thread (no spawn), which keeps `--jobs 1` runs trivially
 * deterministic and sanitizer-quiet.
 *
 * In a drain, an idle worker spins for a bounded while before it
 * parks on the condition variable: the next task of a DAG drain
 * usually appears within microseconds, when a peer releases a
 * successor, and a futex sleep and wake-up costs far more than that.
 * Service mode never spins — its idle periods are long.
 */

#ifndef RR_SIM_TASK_POOL_HH
#define RR_SIM_TASK_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rr::sim
{

class TaskPool
{
  public:
    using Task = std::function<void()>;

    /** @param workers Worker threads; 0 = all hardware threads. */
    explicit TaskPool(std::uint32_t workers = 0);
    ~TaskPool();

    std::uint32_t workers() const { return workers_; }

    /**
     * Enqueue a task. Thread-safe; callable both before drain() and
     * from inside a running task. Dropped silently after
     * cancelPending() during a drain() (the flag re-arms when the
     * cancelled drain() returns); in service mode submits are never
     * silently dropped — see cancelPending().
     */
    void submit(Task task);

    /**
     * Enqueue with an affinity hint: the task lands on worker
     * `affinity % workers()`'s local queue and runs there unless that
     * worker falls idle last — idle workers steal from the shared
     * queue first, then from other workers' local queues, so a hint
     * can delay a task but never strand it. The parallel replayer
     * hints with the interval's core id, which keeps a core's chain
     * (and its write-set pages) on a stable worker.
     */
    void submit(Task task, std::uint32_t affinity);

    /**
     * Drop every queued-but-not-started task; in-flight tasks run to
     * completion. Returns the number of tasks dropped.
     *
     * During a drain() the pool additionally refuses new submits for
     * the remainder of that drain (stop-the-world after a replay
     * divergence). In service mode there is no drain end to re-arm
     * the flag, so cancelPending() only clears what is queued *now*
     * and later submits are accepted — a long-lived server must not
     * be wedged by one cancellation.
     */
    std::uint64_t cancelPending();

    /**
     * Service mode: spawn workers() persistent threads that execute
     * tasks as they are submitted and otherwise sleep. Unlike drain(),
     * the pool stays alive through idle periods — the shape a
     * long-lived daemon needs. Not reentrant; do not mix a running
     * service with drain().
     */
    void start();

    /**
     * Leave service mode. With @p finish_queued the workers first run
     * everything already queued (graceful drain); otherwise queued
     * tasks are dropped (their count is returned) and only in-flight
     * tasks finish. Joins all workers before returning. The pool can
     * be start()ed again afterwards.
     */
    std::uint64_t stop(bool finish_queued = true);

    /** True between start() and stop(). */
    bool serving() const;

    /** Tasks executed since start() (service mode only). */
    std::uint64_t serviceTasksRun() const;

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
     * Run tasks until the queue is empty and none is in flight, then
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
    void serviceLoop(std::uint32_t worker_index);
    /** Pop the next task for @p worker_index; caller holds mu_ and
     *  guarantees queued_ != 0. */
    Task takeLocked(std::uint32_t worker_index);
    /** Clear all queues; caller holds mu_. Returns tasks dropped. */
    std::uint64_t dropQueuedLocked();

    const std::uint32_t workers_;

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<Task> queue_;
    /** Per-worker affinity queues; queued_ counts queue_ + local_. */
    std::vector<std::deque<Task>> local_;
    // Written only under mu_, so the wait predicates stay exact; atomic
    // so that spinWhileIdle() can read them without the lock.
    std::atomic<std::uint64_t> queued_{0};
    std::atomic<std::uint32_t> inflight_{0};
    bool cancelled_ = false;

    // Service mode (all under mu_ except the thread handles, which
    // only start()/stop() touch — callers serialize those two).
    bool serving_ = false;
    bool stopping_ = false;
    bool stopFinishQueued_ = true;
    std::uint64_t serviceTasksRun_ = 0;
    std::vector<std::thread> serviceThreads_;
};

} // namespace rr::sim

#endif // RR_SIM_TASK_POOL_HH
