/**
 * @file
 * Job execution for the replay service: runs one record / replay /
 * verify / stats job described by a JobParams and packages the outcome
 * as a JSON result object. Record and replay jobs go through the
 * shared pipeline (svc/pipeline.hh) that `rrsim record|replay|inspect`
 * also calls, so a service job and the CLI command with the same
 * parameters run the same code and apply the same verification.
 *
 * Cancellation is cooperative (see pipeline.hh for where the token is
 * polled); a fired token aborts the job with JobCancelled. Results are
 * byte-stable: the same params yield the same result JSON whether run
 * here or in-process by a test, which is what the soak test's
 * byte-identity check relies on.
 */

#ifndef RR_SVC_JOB_RUNNER_HH
#define RR_SVC_JOB_RUNNER_HH

#include <string>

#include "svc/pipeline.hh"
#include "svc/protocol.hh"

namespace rr::svc
{

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
