/**
 * @file
 * Job scheduler of the replay service: `executors` threads, each of
 * which pops the next admitted job off the JobQueue per its fairness
 * policy and runs it. An idle executor pops the next job, so at most
 * `executors` jobs are in flight, and everything else waits *in the
 * JobQueue*, where per-tenant quotas and weighted fairness apply.
 *
 * Lifecycle events (running / progress / completed / failed /
 * cancelled) are pushed through a caller-supplied emit callback, keyed
 * by the originating connection id — the server turns them into wire
 * lines; tests capture them directly.
 *
 * Cancellation is layered: a *queued* job is simply removed from the
 * queue (JobQueue::cancel); a *running* job's CancelToken is fired and
 * the job runner aborts cooperatively at its next poll point (replay
 * load hooks / interval-close sinks — see pipeline.hh). A per-job
 * timeout is a deadline on the same token, set when the job is popped,
 * so it fires at the job's first poll past it. stop(drain=true)
 * finishes everything queued (graceful SIGTERM); stop(drain=false)
 * cancels queued jobs and fires every running token (fast SIGINT
 * abort).
 */

#ifndef RR_SVC_SCHEDULER_HH
#define RR_SVC_SCHEDULER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

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
     * connection @p conn. Called from the executor threads and from
     * the cancelling caller concurrently — must be thread-safe.
     */
    using EventFn =
        std::function<void(std::uint64_t conn, std::string event)>;

    Scheduler(JobQueue &queue, Options opts, EventFn emit);
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /** Spawn the executor threads. */
    void start();

    /**
     * Stop executing. @p drain: run everything still queued first;
     * otherwise queued jobs are cancelled (events emitted) and running
     * jobs' tokens fired. Joins every executor; idempotent.
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

    struct Snapshot
    {
        std::uint64_t running = 0;
        std::uint64_t completed = 0;
        std::uint64_t failed = 0;
        std::uint64_t cancelled = 0;
    };
    Snapshot snapshot() const;

  private:
    struct Running
    {
        std::uint64_t conn = 0;
        /** Owned by the executor running the job. */
        CancelToken *token = nullptr;
        /** Set by an explicit cancel; null when the deadline fired. */
        const char *cancelReason = nullptr;
    };

    /** One executor: pop, run, repeat until the queue closes empty. */
    void executorLoop();
    void execute(JobDesc job);

    JobQueue &queue_;
    const Options opts_;
    const EventFn emit_;

    mutable std::mutex mu_;
    std::map<std::uint64_t, Running> running_;
    Snapshot done_; ///< running field unused; counters only

    std::vector<std::thread> executors_;
};

} // namespace rr::svc

#endif // RR_SVC_SCHEDULER_HH
