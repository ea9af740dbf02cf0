/**
 * @file
 * Job execution for the replay service: runs one record / replay /
 * verify / stats job described by a JobParams through the exact code
 * paths the one-shot CLI uses — recording via machine::Machine with an
 * optional streaming rnr::LogWriter, replay via mmap ingest
 * (rnr::LogReader, IngestMode::Auto), readAllParallel decode and the
 * rnr::ParallelReplayer engine — and packages the outcome as a JSON
 * result object. Determinism verification is identical to
 * `rrsim replay FILE`: memory fingerprint, total instructions, and
 * per-core load-value hashes / load counts / instruction counts are
 * checked against the recorded summary.
 *
 * Cancellation is cooperative: the runner polls a shared CancelToken
 * at sequential-replay load hooks (every few thousand loads), before
 * every interval of a parallel replay, at recording interval closes,
 * and between stages; a fired token aborts the job with JobCancelled.
 * Results are therefore byte-stable: the same params yield the same
 * result JSON whether run here or in-process by a test, which is what
 * the soak test's byte-identity check relies on.
 */

#ifndef RR_SVC_JOB_RUNNER_HH
#define RR_SVC_JOB_RUNNER_HH

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>

#include "svc/protocol.hh"

namespace rr::svc
{

/** Shared cancellation flag; set by the scheduler, polled by jobs. */
class CancelToken
{
  public:
    void cancel() { flag_.store(true, std::memory_order_relaxed); }
    bool cancelled() const
    {
        return flag_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<bool> flag_{false};
};

/** Thrown by the runner when its token fires mid-job. */
struct JobCancelled : std::runtime_error
{
    JobCancelled() : std::runtime_error("job cancelled") {}
};

/** What a finished job reports. */
struct JobOutcome
{
    bool ok = false;
    /**
     * rrlog/rrsim exit-code class of the failure: 1 corrupt/mismatch,
     * 2 invalid request (e.g. unknown kernel), 3 OS-level I/O.
     * 0 when ok.
     */
    int errorClass = 0;
    std::string errorClassName() const
    {
        switch (errorClass) {
          case 0:
            return "NONE";
          case 2:
            return "INVALID";
          case 3:
            return "IO";
          default:
            return "MISMATCH";
        }
    }
    std::string message; ///< failure detail (empty when ok)
    /** Serialized JSON object describing the result (always set). */
    std::string resultJson = "{}";
};

/**
 * Run @p params to completion (or cancellation). Never throws except
 * JobCancelled — every other failure is folded into the outcome.
 */
JobOutcome runJob(const JobParams &params, const CancelToken &token);

} // namespace rr::svc

#endif // RR_SVC_JOB_RUNNER_HH
