/**
 * @file
 * Wire protocol of the replay service (`rrsim serve`): one JSON object
 * per newline-terminated line, in both directions. Clients send
 * requests; the server answers every request with at least one event
 * line and streams job lifecycle events (accepted -> running ->
 * progress* -> completed | failed) as they happen. The full grammar
 * lives in docs/SERVICE.md.
 *
 * The JSON support here is deliberately self-contained: a strict
 * recursive-descent parser over a small value model (null, bool,
 * int64/double, string, array, object) with depth and size limits,
 * hardened against arbitrary bytes (the protocol fuzz test feeds it
 * garbage) — the daemon must never crash on a malformed line.
 */

#ifndef RR_SVC_PROTOCOL_HH
#define RR_SVC_PROTOCOL_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rnr/logstore.hh"
#include "sim/config.hh"

namespace rr::svc
{

// --- JSON value model -------------------------------------------------

class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json>;

class Json
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Int,    ///< exactly representable signed 64-bit integer
        Double, ///< everything else numeric
        String,
        Array,
        Object,
    };

    Json() : kind_(Kind::Null) {}
    Json(bool b) : kind_(Kind::Bool), bool_(b) {}
    Json(std::int64_t v) : kind_(Kind::Int), int_(v) {}
    Json(std::uint64_t v)
        : kind_(Kind::Int), int_(static_cast<std::int64_t>(v))
    {
    }
    Json(double v) : kind_(Kind::Double), double_(v) {}
    Json(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
    Json(const char *s) : kind_(Kind::String), str_(s) {}
    Json(JsonArray a)
        : kind_(Kind::Array),
          arr_(std::make_shared<JsonArray>(std::move(a)))
    {
    }
    Json(JsonObject o)
        : kind_(Kind::Object),
          obj_(std::make_shared<JsonObject>(std::move(o)))
    {
    }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool(bool fallback = false) const
    {
        return kind_ == Kind::Bool ? bool_ : fallback;
    }
    std::int64_t asInt(std::int64_t fallback = 0) const
    {
        if (kind_ == Kind::Int)
            return int_;
        if (kind_ == Kind::Double)
            return static_cast<std::int64_t>(double_);
        return fallback;
    }
    double asDouble(double fallback = 0.0) const
    {
        if (kind_ == Kind::Double)
            return double_;
        if (kind_ == Kind::Int)
            return static_cast<double>(int_);
        return fallback;
    }
    const std::string &asString() const
    {
        static const std::string empty;
        return kind_ == Kind::String ? str_ : empty;
    }
    const JsonArray &asArray() const
    {
        static const JsonArray empty;
        return kind_ == Kind::Array && arr_ ? *arr_ : empty;
    }
    const JsonObject &asObject() const
    {
        static const JsonObject empty;
        return kind_ == Kind::Object && obj_ ? *obj_ : empty;
    }

    /** Object member lookup; Null for absent keys or non-objects. */
    const Json &get(const std::string &key) const;

    /** Serialize (compact, no trailing newline; keys in map order). */
    std::string dump() const;
    void dumpTo(std::string &out) const;

  private:
    Kind kind_;
    bool bool_ = false;
    std::int64_t int_ = 0;
    double double_ = 0.0;
    std::string str_;
    std::shared_ptr<JsonArray> arr_;
    std::shared_ptr<JsonObject> obj_;
};

/** Escape @p s into a double-quoted JSON string literal. */
std::string jsonQuote(const std::string &s);

/**
 * Parse one JSON document. Limits: @p max_depth nesting levels and
 * whatever text.size() the caller already capped (the server caps
 * request lines). Trailing non-whitespace bytes are an error.
 * @return the value, or std::nullopt with @p error set to a
 *         human-readable message including the byte offset.
 */
std::optional<Json> parseJson(const std::string &text,
                              std::string &error,
                              std::size_t max_depth = 32);

// --- Requests ---------------------------------------------------------

/** Typed admission / protocol failures, sent as `"error"` codes. */
enum class ErrorCode
{
    BadRequest,    ///< unparseable or semantically invalid line
    QueueFull,     ///< global queue capacity reached
    QuotaExceeded, ///< the tenant's queued-job quota is reached
    ShuttingDown,  ///< server is draining; no new jobs
    NotFound,      ///< cancel target unknown
    Internal,      ///< unexpected server-side failure
};
const char *toString(ErrorCode code);

enum class JobKind
{
    Record,
    Replay,
    Verify,
    Stats,
};
const char *toString(JobKind kind);

/**
 * Bounds on a job's machine size and worker counts: cores in
 * [1, kMaxCores], and replay workers (and the daemon's executors) in
 * [0, kMaxJobs]. The protocol, the pipeline and the CLIs all refuse
 * values outside them.
 */
constexpr std::uint64_t kMaxCores = 256;
constexpr std::uint64_t kMaxJobs = 256;

/** Parameters of one record/replay/verify/stats job. */
struct JobParams
{
    JobKind kind = JobKind::Record;
    // record (and kernel-based replay): the workload.
    std::string kernel;
    std::uint32_t cores = 8;
    std::uint64_t scale = 1;
    sim::RecorderMode mode = sim::RecorderMode::Opt;
    std::uint64_t intervalCap = 0; ///< 0 = INF
    bool deps = false;
    sim::CoherenceKind coherence = sim::CoherenceKind::Snoopy;
    /** True when the request named a coherence explicitly (replay:
     *  checked against the file's tag instead of silently ignored). */
    bool coherenceSet = false;
    std::string outFile; ///< record: stream to this .rrlog
    // replay/verify/stats: the input container.
    std::string file;
    std::uint32_t jobs = 1; ///< replay worker threads; 0 = all cores
    /** Kept for perfbench/ until the next benchmark change; nothing
     *  in the service reads it. */
    rnr::IngestMode ingest = rnr::IngestMode::Auto;
    bool allowPartial = false;
};

/** One decoded client request line. */
struct Request
{
    enum class Op
    {
        Submit,   ///< enqueue a job (params say which kind)
        Cancel,   ///< cancel a queued or running job by id
        Status,   ///< server/queue/scheduler snapshot
        Ping,     ///< liveness probe
        Shutdown, ///< stop the server (drain or abort)
    };

    Op op = Op::Ping;
    std::string tenant = "default";
    std::uint64_t weight = 1; ///< fair-share weight, clamped to [1,100]
    /** Client-chosen correlation tag, echoed on every event. */
    std::string tag;
    double timeoutSec = 0.0; ///< per-job timeout; 0 = server default
    JobParams params;        ///< op == Submit
    std::uint64_t cancelJob = 0;
    bool drain = true; ///< op == Shutdown: finish queued jobs first
};

/**
 * Decode one request line. On failure returns std::nullopt and fills
 * @p error with a BadRequest detail message.
 */
std::optional<Request> parseRequest(const std::string &line,
                                    std::string &error);

// --- Events -----------------------------------------------------------

/**
 * Builders for the server->client event lines. Every returned string
 * is a complete JSON object WITHOUT the trailing newline (the
 * connection layer appends it). `tag` is echoed verbatim when
 * non-empty.
 */
std::string eventAccepted(std::uint64_t job, const std::string &tag,
                          std::uint64_t queue_depth);
std::string eventRejected(ErrorCode code, const std::string &detail,
                          const std::string &tag);
std::string eventRunning(std::uint64_t job, const std::string &tag);
std::string eventProgress(std::uint64_t job, const std::string &tag,
                          const std::string &stage);
/** @param result A pre-serialized JSON object (the job's result). */
std::string eventCompleted(std::uint64_t job, const std::string &tag,
                           const std::string &result,
                           double wall_seconds);
std::string eventFailed(std::uint64_t job, const std::string &tag,
                        const std::string &error_class,
                        const std::string &message);
/** @param reason "cancel" | "timeout" | "shutdown" | "disconnect". */
std::string eventCancelled(std::uint64_t job, const std::string &tag,
                           const std::string &reason);
std::string eventPong();
/** @param body A pre-serialized JSON object (status payload). */
std::string eventStatus(const std::string &body);
std::string eventShutdown(bool draining);

} // namespace rr::svc

#endif // RR_SVC_PROTOCOL_HH
