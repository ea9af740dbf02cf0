/**
 * @file
 * Job scheduler of the replay service: pops admitted jobs off the
 * JobQueue per its fairness policy and executes them on a
 * sim::TaskPool in service mode (persistent executor threads).
 * Dispatch is gated on a free executor slot — at most `executors` jobs
 * are in flight, and everything else waits *in the JobQueue*, where
 * per-tenant quotas and weighted fairness apply, rather than draining
 * into the pool's unbounded FIFO the moment it is admitted.
 *
 * Lifecycle events (running / progress / completed / failed /
 * cancelled) are pushed through a caller-supplied emit callback, keyed
 * by the originating connection id — the server turns them into wire
 * lines; tests capture them directly.
 *
 * Cancellation is layered: a *queued* job is simply removed from the
 * queue (JobQueue::cancel); a *running* job's CancelToken is fired and
 * the job runner aborts cooperatively at its next poll point (replay
 * load hooks / interval-close sinks — see pipeline.hh). Per-job
 * timeouts reuse the same token, fired by the dispatch thread's
 * periodic deadline scan. stop(drain=true) finishes everything queued
 * (graceful SIGTERM); stop(drain=false) cancels queued jobs and fires
 * every running token (fast SIGINT abort).
 */

#ifndef RR_SVC_SCHEDULER_HH
#define RR_SVC_SCHEDULER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "sim/task_pool.hh"
#include "svc/job_queue.hh"
#include "svc/job_runner.hh"

namespace rr::svc
{

class Scheduler
{
  public:
    struct Options
    {
        /** Executor threads (concurrently running jobs). 0 = all
         *  hardware threads. */
        std::uint32_t executors = 2;
        /** Applied to jobs that did not set one; 0 = unlimited. */
        double defaultTimeoutSec = 0.0;
    };

    /**
     * Deliver @p event (a complete JSON object line, no newline) to
     * connection @p conn. Called from the dispatch thread and from
     * executor threads concurrently — must be thread-safe.
     */
    using EventFn =
        std::function<void(std::uint64_t conn, std::string event)>;

    Scheduler(JobQueue &queue, Options opts, EventFn emit);
    ~Scheduler();

    /** Spawn the dispatch thread and the executor pool. */
    void start();

    /**
     * Stop dispatching. @p drain: run everything still queued first;
     * otherwise queued jobs are cancelled (events emitted) and running
     * jobs' tokens fired. Joins everything; idempotent.
     */
    void stop(bool drain);

    /**
     * Cancel a job: queued -> removed + cancelled event; running ->
     * token fired (the runner emits the cancelled event when it
     * unwinds). @return false when the id is neither queued nor
     * running (already finished or never existed).
     */
    bool cancel(std::uint64_t job_id);

    /**
     * Non-blocking abort: close admissions, cancel everything queued
     * (cancelled events emitted now) and fire every running job's
     * token with @p reason. The running jobs unwind asynchronously;
     * stop() or snapshot() polling tells the caller when they have.
     */
    void cancelAll(const char *reason = "shutdown");

    /** Cancel every queued/running job owned by @p conn. */
    void cancelConnection(std::uint64_t conn);

    struct Snapshot
    {
        std::uint64_t running = 0;
        std::uint64_t completed = 0;
        std::uint64_t failed = 0;
        std::uint64_t cancelled = 0;
    };
    Snapshot snapshot() const;

    /** True once stop() has begun (admissions should be refused). */
    bool stopping() const;

  private:
    struct Running
    {
        JobDesc desc;
        std::shared_ptr<CancelToken> token;
        /** steady_clock deadline; time_point::max() = none. */
        std::chrono::steady_clock::time_point deadline;
        const char *cancelReason = "cancel";
    };

    void dispatchLoop();
    /** Runs on an executor thread. */
    void execute(std::uint64_t job_id);
    void fireExpiredLocked(std::chrono::steady_clock::time_point now);

    JobQueue &queue_;
    const Options opts_;
    const EventFn emit_;

    sim::TaskPool pool_;
    std::thread dispatcher_;
    bool started_ = false;

    mutable std::mutex mu_;
    /** Signalled when an executor slot frees up (a job finished). */
    std::condition_variable slotFree_;
    std::map<std::uint64_t, Running> running_;
    bool stopping_ = false;
    Snapshot done_; ///< running field unused; counters only
};

} // namespace rr::svc

#endif // RR_SVC_SCHEDULER_HH
