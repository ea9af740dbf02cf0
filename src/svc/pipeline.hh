/**
 * @file
 * The record -> .rrlog -> replay-and-verify pipeline, written once and
 * shared by the replay service (svc::runJob) and the one-shot CLI
 * (`rrsim record|replay|inspect`). Both turn their input into a
 * JobParams and call these functions, so a CLI run and a service job
 * with the same parameters run the same code:
 *
 *  - checkRecordable() refuses a workload the simulator cannot build,
 *    before anything is built;
 *  - recordingMeta() / recordingSummary() are the .rrlog Meta and
 *    Summary of a recording;
 *  - record() runs a kernel under one recorder policy, streaming into
 *    the caller's LogWriter when it passes one;
 *  - replayAndVerify() replays a .rrlog file, or a fresh in-memory
 *    recording of a kernel, and checks the result against the
 *    recording's Summary.
 *
 * Every replay runs on the one engine, rnr::Replayer, offered
 * JobParams::jobs workers; the engine itself decides whether the logs
 * let it fan out over them. One check compares every replay with its
 * Summary: memory fingerprint, total instructions, and per core the
 * load-value hash, load count and instruction count.
 *
 * Refusals are typed (JobRefused). Cancellation is cooperative: a
 * CancelToken is polled at every closed interval while recording,
 * before every interval and at least once every
 * rnr::IntervalInterpreter::kAbortPollInstructions instructions inside
 * one, by every replay worker, and between stages; a fired token
 * throws JobCancelled. A token fires when cancel() is called or, if it
 * has a deadline, at the first poll past that deadline.
 */

#ifndef RR_SVC_PIPELINE_HH
#define RR_SVC_PIPELINE_HH

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "machine/machine.hh"
#include "rnr/logstore.hh"
#include "rnr/replayer.hh"
#include "svc/protocol.hh"
#include "workloads/runtime.hh"

namespace rr::rnr
{
struct ParallelSchedule;
} // namespace rr::rnr

namespace rr::svc
{

/** Thrown by the pipeline when its token fires mid-job. */
struct JobCancelled : std::runtime_error
{
    JobCancelled() : std::runtime_error("job cancelled") {}
};

/**
 * Shared cancellation flag with an optional deadline; fired by the
 * scheduler, polled by jobs. A token without a deadline polls one
 * atomic flag; one with a deadline also reads steady_clock on every
 * poll, so only jobs that set a timeout pay for the clock.
 */
class CancelToken
{
  public:
    using Clock = std::chrono::steady_clock;

    CancelToken() = default;
    /** A token that also fires once @p deadline has passed. */
    explicit CancelToken(Clock::time_point deadline) : deadline_(deadline)
    {
    }

    void cancel() { flag_.store(true, std::memory_order_relaxed); }
    bool cancelled() const
    {
        return flag_.load(std::memory_order_relaxed) ||
               (deadline_ != Clock::time_point::max() &&
                Clock::now() >= deadline_);
    }
    /** The poll: throw JobCancelled once the token has fired. */
    void check() const
    {
        if (cancelled())
            throw JobCancelled();
    }

  private:
    std::atomic<bool> flag_{false};
    const Clock::time_point deadline_ = Clock::time_point::max();
};

/**
 * A request or an input the pipeline will not run. errorClass follows
 * the rrsim/rrlog exit codes: 1 corrupt input, 2 invalid request.
 */
struct JobRefused : std::runtime_error
{
    JobRefused(int error_class, const std::string &what,
               const char *determinism_tag = nullptr)
        : std::runtime_error(what), errorClass(error_class),
          determinism(determinism_tag)
    {
    }

    int errorClass;
    /** The replay result's "determinism" value for this refusal
     *  ("partial-refused", "coherence-mismatch"), or null. */
    const char *determinism;
};

/**
 * Refuse (JobRefused, class 2) a kernel the simulator cannot build:
 * an unknown name, cores outside [1,256], or a directory machine with
 * more than 64 cores. record() checks first thing; a caller that opens
 * a LogWriter checks before that, so a refused request leaves no
 * staging file behind.
 */
void checkRecordable(const JobParams &p);

/** The .rrlog metadata of a recording of @p p's kernel. */
rnr::RecordingMeta recordingMeta(const JobParams &p);

/** The replay-verification targets of a finished recording. */
rnr::RecordingSummary recordingSummary(const machine::RecordingResult &rec);

/** A finished recording of one kernel under one recorder policy. */
struct Recording
{
    workloads::Workload workload;
    /** The machine that ran it, kept for its statistics. */
    std::unique_ptr<machine::Machine> machine;
    machine::RecordingResult rec;
    /** Statistics of the recorded log (policy 0). */
    rnr::LogStats stats;
};

/**
 * Record @p p's kernel. When @p writer is set, every interval streams
 * into it as it closes and the writer is finished with the recording's
 * Summary. @p token is polled at every closed interval.
 */
Recording record(const JobParams &p, const CancelToken &token,
                 rnr::LogWriter *writer = nullptr);

enum class Verdict
{
    Ok,        ///< the replay matches the Summary
    Mismatch,  ///< it does not; see ReplayOutcome::mismatchedCores
    PartialOk, ///< no sound Summary: a salvaged prefix replayed cleanly
};

/** What a prefix replay salvaged from a partial or damaged file. */
struct Salvage
{
    std::uint64_t intervals = 0;     ///< decoded from the file
    std::uint64_t chunks = 0;        ///< data chunks decoded
    std::uint64_t droppedChunks = 0; ///< data chunks lost or discarded
    std::uint64_t kept = 0;          ///< intervals left by the cut
    std::uint64_t cut = 0;           ///< timestamp of the consistent cut
};

struct ReplayOutcome
{
    rnr::RecordingMeta meta;
    /** The recorded targets (unset under Verdict::PartialOk). */
    rnr::RecordingSummary summary;
    rnr::ReplayResult result;
    /** The logs carry dependency edges (RecordingMeta::deps), so the
     *  engine could fan out; the result's workers say whether it did. */
    bool parallel = false;
    Verdict verdict = Verdict::Ok;
    /** Cores whose load hash, load count or instructions differ. */
    std::vector<sim::CoreId> mismatchedCores;
    Salvage salvage; ///< Verdict::PartialOk only

    // File replay: the container's header facts.
    std::uint16_t fileVersion = 0;
    std::uint64_t fileFingerprint = 0;
    bool filePartial = false;

    /** Kernel replay: the in-memory recording that was replayed. */
    std::optional<Recording> recording;
};

/**
 * Replay @p p.file, or (no file) a fresh recording of @p p.kernel,
 * and verify it against the recording's Summary.
 *
 * A file is refused as corrupt input (JobRefused, class 1) when its
 * coherence tag disagrees with an explicit p.coherence, when it is
 * flagged partial and p.allowPartial is off, when its Summary lists a
 * different number of cores than its header, when the logs it holds
 * (after any salvage cut) break an invariant replay relies on or, with
 * a Summary to verify against, disagree with its per-core instruction
 * or interval counts (rnr::replayInvariantViolation), or when its
 * metadata names a workload checkRecordable() would refuse. With
 * p.allowPartial, a file without a sound Summary replays its salvaged
 * consistent prefix instead (Verdict::PartialOk).
 *
 * @param model When set and the logs carry dependency edges, receives
 *        the modelled schedule of the patched logs.
 */
ReplayOutcome replayAndVerify(const JobParams &p, const CancelToken &token,
                              rnr::ParallelSchedule *model = nullptr);

} // namespace rr::svc

#endif // RR_SVC_PIPELINE_HH
