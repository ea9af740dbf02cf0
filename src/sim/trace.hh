/**
 * @file
 * Event tracing in the Chrome trace format (chrome://tracing /
 * Perfetto). A single process-global TraceSink is installed with
 * TraceSink::open() (driven by `--trace=FILE` or the RR_TRACE
 * environment variable); instrumentation sites across the recorder,
 * memory system and cores then emit per-core timeline events, and
 * TraceJobScope marks each sweep job.
 *
 * The disabled path is one relaxed load plus a predicted branch:
 *
 *     if (sim::TraceSink::enabled())
 *         sim::TraceSink::get()->instant(...);
 *
 * Conventions:
 *  - pid kRecordPid (0): simulated-machine events; timestamps are
 *    simulated cycles, tid is the core id. Inside a TraceJobScope the
 *    thread's machine events go to a pid of the job's own instead
 *    (2, 3, ..., named after the job), so the core tracks of different
 *    sweep jobs never mix.
 *  - pid kSweepPid (1): one span per sweep job; timestamps are host
 *    wall-clock microseconds since the trace opened, tid is the job
 *    index.
 *
 * Emission is mutex-serialized, so concurrent sweep jobs may trace
 * safely.
 */

#ifndef RR_SIM_TRACE_HH
#define RR_SIM_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <mutex>
#include <string>

namespace rr::sim
{

/** One key/value pair in a trace event's "args" object. */
struct TraceArg
{
    const char *key;
    std::uint64_t num = 0;
    /** When non-null, the arg serializes as a JSON string instead. */
    const char *str = nullptr;

    TraceArg(const char *k, std::uint64_t v) : key(k), num(v) {}
    TraceArg(const char *k, std::uint32_t v) : key(k), num(v) {}
    TraceArg(const char *k, int v)
        : key(k), num(static_cast<std::uint64_t>(v))
    {
    }
    TraceArg(const char *k, bool v) : key(k), num(v ? 1 : 0) {}
    TraceArg(const char *k, const char *s) : key(k), str(s) {}
};

class TraceSink
{
  public:
    /** Track (pid) for simulated-machine events; ts in cycles. */
    static constexpr std::uint32_t kRecordPid = 0;
    /** Track (pid) for sweep-job spans; ts in wall microseconds. */
    static constexpr std::uint32_t kSweepPid = 1;

    /** Whether a global sink is installed (the hot-path check). */
    static bool
    enabled()
    {
        return sink_.load(std::memory_order_relaxed) != nullptr;
    }

    /** The installed sink; only valid when enabled(). */
    static TraceSink *
    get()
    {
        return sink_.load(std::memory_order_acquire);
    }

    /**
     * Install a global sink writing to @p path; fatal() if the file
     * cannot be opened or a sink is already installed.
     */
    static void open(const std::string &path);

    /** open(RR_TRACE) when the variable is set and no sink exists. */
    static void openFromEnv();

    /** Flush, close the JSON document and uninstall; no-op if disabled. */
    static void close();

    /** Events written so far (tests). */
    std::uint64_t eventCount() const { return events_; }

    /** A zero-duration point event on one track. */
    void instant(std::uint32_t pid, std::uint32_t tid, const char *cat,
                 const char *name, std::uint64_t ts,
                 std::initializer_list<TraceArg> args = {});

    /** A complete (ph "X") event spanning [ts, ts+dur]. */
    void complete(std::uint32_t pid, std::uint32_t tid, const char *cat,
                  const std::string &name, std::uint64_t ts,
                  std::uint64_t dur,
                  std::initializer_list<TraceArg> args = {});

    /** A counter (ph "C") sample. */
    void counter(std::uint32_t pid, std::uint32_t tid, const char *name,
                 std::uint64_t ts, std::uint64_t value);

  private:
    friend class TraceJobScope;

    explicit TraceSink(std::ofstream out);

    /** Host wall-clock microseconds since the sink opened. */
    std::uint64_t wallMicros() const;

    void writeEvent(std::uint32_t pid, std::uint32_t tid, const char *cat,
                    const char *name, char ph, std::uint64_t ts,
                    std::uint64_t dur, bool has_dur,
                    std::initializer_list<TraceArg> args);
    void writeMetadata(std::uint32_t pid, const char *process_name);
    void writeRaw(const std::string &line);

    static std::atomic<TraceSink *> sink_;
    /** Where this thread's kRecordPid events go (see TraceJobScope). */
    static thread_local std::uint32_t recordPid_;

    std::mutex mutex_;
    std::ofstream out_;
    std::uint64_t events_ = 0;
    const std::chrono::steady_clock::time_point opened_;
    std::atomic<std::uint32_t> nextPid_{kSweepPid + 1};
};

/**
 * One sweep job on the calling thread, as the trace sees it. While the
 * scope lives, the thread's machine events (kRecordPid) go to a pid
 * the sink allocates for the job and names after @p label and @p job.
 * On exit it writes the job's `sweep` span on kSweepPid: tid = @p job,
 * ts = wall microseconds since the trace opened. Does nothing when
 * tracing is off.
 */
class TraceJobScope
{
  public:
    TraceJobScope(std::size_t job, std::string label);
    ~TraceJobScope();

    TraceJobScope(const TraceJobScope &) = delete;
    TraceJobScope &operator=(const TraceJobScope &) = delete;

  private:
    TraceSink *sink_; ///< null when tracing is off
    std::size_t job_;
    std::string label_;
    std::uint64_t start_ = 0;
};

} // namespace rr::sim

#endif // RR_SIM_TRACE_HH
