#include "svc/job_queue.hh"

#include <vector>

namespace rr::svc
{

JobQueue::JobQueue() : JobQueue(Options()) {}

JobQueue::JobQueue(Options opts) : opts_(opts) {}

AdmitResult
JobQueue::admit(JobDesc job, std::uint64_t weight)
{
    AdmitResult res;
    {
        std::lock_guard lock(mu_);
        res.depth = depth_;
        if (closed_) {
            res.error = ErrorCode::ShuttingDown;
            return res;
        }
        if (depth_ >= opts_.capacity) {
            ++counters_.rejectedFull;
            res.error = ErrorCode::QueueFull;
            return res;
        }
        // Don't create a map entry until the job is actually taken —
        // tenant names are client-chosen, and entries for tenants
        // with no queued work must not accumulate.
        auto it = tenants_.find(job.tenant);
        const std::size_t tenant_depth =
            it == tenants_.end() ? 0 : it->second.fifo.size();
        if (tenant_depth >= opts_.tenantQuota) {
            ++counters_.rejectedQuota;
            res.error = ErrorCode::QuotaExceeded;
            return res;
        }
        Tenant &t =
            it == tenants_.end() ? tenants_[job.tenant] : it->second;
        t.weight = weight;
        job.id = nextId_++;
        job.enqueued = std::chrono::steady_clock::now();
        res.admitted = true;
        res.jobId = job.id;
        t.fifo.push_back(std::move(job));
        ++depth_;
        ++counters_.admitted;
        res.depth = depth_;
    }
    cv_.notify_one();
    return res;
}

JobDesc
JobQueue::popLocked()
{
    // Smooth weighted round-robin over tenants with queued work.
    std::int64_t total = 0;
    auto best = tenants_.end();
    for (auto it = tenants_.begin(); it != tenants_.end(); ++it) {
        Tenant &t = it->second;
        if (t.fifo.empty())
            continue;
        t.credit += static_cast<std::int64_t>(t.weight);
        total += static_cast<std::int64_t>(t.weight);
        if (best == tenants_.end() || t.credit > best->second.credit)
            best = it;
    }
    best->second.credit -= total;
    JobDesc job = std::move(best->second.fifo.front());
    best->second.fifo.pop_front();
    --depth_;
    ++counters_.popped;
    if (best->second.fifo.empty())
        tenants_.erase(best); // keep the map bounded by queued work
    return job;
}

std::optional<JobDesc>
JobQueue::pop(std::chrono::steady_clock::time_point deadline)
{
    std::unique_lock lock(mu_);
    if (!cv_.wait_until(lock, deadline,
                        [this] { return depth_ != 0 || closed_; }))
        return std::nullopt;
    if (depth_ == 0)
        return std::nullopt; // closed and empty
    return popLocked();
}

std::optional<JobDesc>
JobQueue::tryPop()
{
    std::lock_guard lock(mu_);
    if (depth_ == 0)
        return std::nullopt;
    return popLocked();
}

std::optional<JobDesc>
JobQueue::cancel(std::uint64_t job_id)
{
    std::lock_guard lock(mu_);
    for (auto tit = tenants_.begin(); tit != tenants_.end(); ++tit) {
        Tenant &t = tit->second;
        for (auto it = t.fifo.begin(); it != t.fifo.end(); ++it) {
            if (it->id != job_id)
                continue;
            JobDesc job = std::move(*it);
            t.fifo.erase(it);
            --depth_;
            ++counters_.cancelled;
            if (t.fifo.empty())
                tenants_.erase(tit);
            return job;
        }
    }
    return std::nullopt;
}

std::vector<JobDesc>
JobQueue::drainAll()
{
    std::vector<JobDesc> out;
    std::lock_guard lock(mu_);
    for (auto &[name, t] : tenants_)
        for (auto &job : t.fifo)
            out.push_back(std::move(job));
    tenants_.clear();
    counters_.cancelled += out.size();
    depth_ = 0;
    return out;
}

void
JobQueue::close()
{
    {
        std::lock_guard lock(mu_);
        closed_ = true;
    }
    cv_.notify_all();
}

bool
JobQueue::closed() const
{
    std::lock_guard lock(mu_);
    return closed_;
}

std::uint64_t
JobQueue::depth() const
{
    std::lock_guard lock(mu_);
    return depth_;
}

std::uint64_t
JobQueue::tenantDepth(const std::string &tenant) const
{
    std::lock_guard lock(mu_);
    auto it = tenants_.find(tenant);
    return it == tenants_.end() ? 0 : it->second.fifo.size();
}

std::size_t
JobQueue::tenantCount() const
{
    std::lock_guard lock(mu_);
    return tenants_.size();
}

JobQueue::Counters
JobQueue::counters() const
{
    std::lock_guard lock(mu_);
    return counters_;
}

} // namespace rr::svc
