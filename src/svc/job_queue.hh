/**
 * @file
 * Bounded multi-tenant job queue with admission control — the
 * backpressure layer between the protocol front end and the scheduler.
 *
 * Invariants:
 *  - the queue holds job *descriptors* only (strings + scalars, no
 *    open files, no decoded logs), so thousands of queued jobs cost
 *    kilobytes, not gigabytes — logs are opened when a job dispatches;
 *  - admission is all-or-nothing and typed: a job the queue cannot
 *    take is rejected *now* with QUEUE_FULL (global capacity) or
 *    QUOTA_EXCEEDED (per-tenant cap), never buffered unboundedly;
 *  - dispatch order is FIFO within a tenant and smooth weighted
 *    round-robin across tenants (nginx's algorithm: each pick adds
 *    every waiting tenant's weight to its credit, the highest credit
 *    wins and pays the total weight back), so one tenant flooding the
 *    queue cannot starve the others.
 *
 * Thread-safe; admission (server thread) and pop (the scheduler's
 * executor threads) run concurrently.
 */

#ifndef RR_SVC_JOB_QUEUE_HH
#define RR_SVC_JOB_QUEUE_HH

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "svc/protocol.hh"

namespace rr::svc
{

/** A queued job: descriptor only, plus routing/accounting metadata. */
struct JobDesc
{
    std::uint64_t id = 0;
    std::string tenant;
    std::string tag;      ///< client correlation tag (echoed on events)
    std::uint64_t conn = 0; ///< originating connection (event routing)
    JobParams params;
    double timeoutSec = 0.0; ///< 0 = scheduler default
    std::chrono::steady_clock::time_point enqueued{};
};

/** Outcome of JobQueue::admit(). */
struct AdmitResult
{
    bool admitted = false;
    ErrorCode error = ErrorCode::Internal; ///< valid when !admitted
    std::uint64_t jobId = 0;               ///< valid when admitted
    std::uint64_t depth = 0;               ///< queue depth after the call
};

class JobQueue
{
  public:
    struct Options
    {
        /** Global queued-job capacity (all tenants together). */
        std::uint64_t capacity = 1024;
        /** Per-tenant queued-job quota. */
        std::uint64_t tenantQuota = 256;
    };

    JobQueue();
    explicit JobQueue(Options opts);

    /**
     * Admit @p job (its id is assigned here) or reject it with a typed
     * error. @p weight updates the tenant's fair-share weight
     * (clamped upstream to [1,100]; last writer wins).
     */
    AdmitResult admit(JobDesc job, std::uint64_t weight = 1);

    /**
     * Pop the next job per the fairness policy. Blocks until a job is
     * available, @p deadline passes (returns nullopt), or close() is
     * called (returns nullopt immediately once empty... see close()).
     */
    std::optional<JobDesc>
    pop(std::chrono::steady_clock::time_point deadline);

    /** Non-blocking pop. */
    std::optional<JobDesc> tryPop();

    /**
     * Remove a queued job by id. @return its descriptor when it was
     * still queued (so the caller can emit a cancellation event).
     */
    std::optional<JobDesc> cancel(std::uint64_t job_id);

    /** Drop everything queued; returns the descriptors. */
    std::vector<JobDesc> drainAll();

    /**
     * Refuse all further admissions (ShuttingDown) and wake blocked
     * pop() calls. Queued jobs remain poppable.
     */
    void close();
    bool closed() const;

    std::uint64_t depth() const;
    std::uint64_t tenantDepth(const std::string &tenant) const;

    /**
     * Number of tenants with queued work. A tenant's map entry is
     * erased as soon as its FIFO empties, so a long-lived daemon's
     * memory is bounded by queued jobs, not by the number of distinct
     * (client-chosen) tenant names ever seen.
     */
    std::size_t tenantCount() const;

    /** Lifetime counters: admitted / rejected_full / rejected_quota. */
    struct Counters
    {
        std::uint64_t admitted = 0;
        std::uint64_t rejectedFull = 0;
        std::uint64_t rejectedQuota = 0;
        std::uint64_t popped = 0;
        std::uint64_t cancelled = 0;
    };
    Counters counters() const;

  private:
    struct Tenant
    {
        std::uint64_t weight = 1;
        std::int64_t credit = 0; ///< smooth-WRR running credit
        std::deque<JobDesc> fifo;
    };

    /** Pick the next tenant per smooth WRR; caller holds mu_ and
     *  guarantees depth_ != 0. */
    JobDesc popLocked();

    const Options opts_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::map<std::string, Tenant> tenants_;
    std::uint64_t depth_ = 0;
    std::uint64_t nextId_ = 1;
    bool closed_ = false;
    Counters counters_;
};

} // namespace rr::svc

#endif // RR_SVC_JOB_QUEUE_HH
