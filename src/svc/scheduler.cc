#include "svc/scheduler.hh"

#include <chrono>
#include <utility>

#include "sim/jobs.hh"
#include "svc/protocol.hh"

namespace rr::svc
{

using Clock = std::chrono::steady_clock;

Scheduler::Scheduler(JobQueue &queue, Options opts, EventFn emit)
    : queue_(queue), opts_(opts), emit_(std::move(emit))
{
}

Scheduler::~Scheduler()
{
    stop(false);
}

void
Scheduler::start()
{
    const std::uint32_t n = sim::resolveJobs(opts_.executors);
    executors_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i)
        executors_.emplace_back([this] { executorLoop(); });
}

void
Scheduler::cancelAll(const char *reason)
{
    queue_.close();
    for (JobDesc &d : queue_.drainAll()) {
        emit_(d.conn, eventCancelled(d.id, d.tag, reason));
        std::lock_guard lk(mu_);
        ++done_.cancelled;
    }
    std::lock_guard lk(mu_);
    for (auto &[id, run] : running_) {
        if (!run.token->cancelled()) {
            run.cancelReason = reason;
            run.token->cancel();
        }
    }
}

void
Scheduler::stop(bool drain)
{
    if (executors_.empty())
        return;
    if (drain)
        queue_.close(); // executors run what is queued, then exit
    else
        cancelAll("shutdown");
    for (auto &t : executors_)
        t.join();
    executors_.clear();
}

bool
Scheduler::cancel(std::uint64_t job_id)
{
    if (std::optional<JobDesc> d = queue_.cancel(job_id)) {
        emit_(d->conn, eventCancelled(d->id, d->tag, "cancel"));
        std::lock_guard lk(mu_);
        ++done_.cancelled;
        return true;
    }
    std::lock_guard lk(mu_);
    auto it = running_.find(job_id);
    if (it == running_.end())
        return false;
    it->second.cancelReason = "cancel";
    it->second.token->cancel();
    return true;
}

Scheduler::Snapshot
Scheduler::snapshot() const
{
    std::lock_guard lk(mu_);
    Snapshot s = done_;
    s.running = running_.size();
    return s;
}

void
Scheduler::executorLoop()
{
    // pop() sleeps until a job is queued, and returns nothing only
    // once the queue is closed and empty: an idle executor never wakes.
    while (std::optional<JobDesc> job =
               queue_.pop(Clock::time_point::max()))
        execute(std::move(*job));
}

void
Scheduler::execute(JobDesc job)
{
    // The timeout counts from now, when the job leaves the queue.
    const double timeout =
        job.timeoutSec > 0.0 ? job.timeoutSec : opts_.defaultTimeoutSec;
    CancelToken token(
        timeout > 0.0
            ? Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(timeout))
            : Clock::time_point::max());
    {
        std::lock_guard lk(mu_);
        running_.emplace(job.id, Running{job.conn, &token});
    }
    emit_(job.conn, eventRunning(job.id, job.tag));

    // Take the job off running_ and count it; @return the reason an
    // explicit cancel set, or "timeout" when the deadline fired.
    auto retire = [&](std::uint64_t Snapshot::*bucket) {
        std::lock_guard lk(mu_);
        const auto it = running_.find(job.id);
        const char *reason = it->second.cancelReason;
        running_.erase(it);
        ++(done_.*bucket);
        return reason ? reason : "timeout";
    };

    emit_(job.conn, eventProgress(job.id, job.tag, "execute"));
    const Clock::time_point t0 = Clock::now();
    try {
        const JobOutcome out = runJob(job.params, token);
        const double wall =
            std::chrono::duration<double>(Clock::now() - t0).count();
        if (out.ok) {
            retire(&Snapshot::completed);
            emit_(job.conn,
                  eventCompleted(job.id, job.tag, out.resultJson, wall));
        } else {
            retire(&Snapshot::failed);
            emit_(job.conn, eventFailed(job.id, job.tag,
                                        out.errorClassName(),
                                        out.message));
        }
    } catch (const JobCancelled &) {
        const char *reason = retire(&Snapshot::cancelled);
        emit_(job.conn, eventCancelled(job.id, job.tag, reason));
    } catch (const std::exception &e) {
        // Fold anything unexpected into a failure event; an executor
        // must outlive the jobs it runs.
        retire(&Snapshot::failed);
        emit_(job.conn,
              eventFailed(job.id, job.tag, "INTERNAL", e.what()));
    }
}

} // namespace rr::svc
