/**
 * @file
 * Shared pieces of the repository benchmark (`rrbench`): options, the
 * host-speed probe, the in-memory span recorder of traced runs, the
 * metric report, and the clean-up registry that removes temp files and
 * stops the serve daemon on every exit path, signals included.
 */

#ifndef RRBENCH_COMMON_HH
#define RRBENCH_COMMON_HH

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "svc/job_runner.hh"

namespace rrbench
{

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Stop after this many measured ops (0 = run for `seconds`). */
    std::uint64_t maxOps = 0;
    /**
     * Set-up repetitions; setup_s is their median. 0: the workload's
     * own count.
     */
    std::uint32_t setupReps = 0;
    /** This process's directory for temp files and the socket. */
    std::string tmpDir;
    /** Where a traced run writes its Chrome trace. */
    std::string traceFile;
    /**
     * Non-empty: perform one untraced op of the workload on this file
     * (record: write it, then delete it; replay: read it), print the
     * process's VmHWM in MiB and exit. The peak-RSS measurement runs the
     * binary this way.
     */
    std::string oneOpFile;
};

/**
 * The Record job every workload records: raytrace, 8 cores, Opt mode,
 * snoopy coherence, streamed to @p out. With @p deps it records
 * dependency edges with interval cap 128; without, neither.
 */
rr::svc::JobParams recordParams(std::uint64_t scale, const std::string &out,
                                bool deps = true);

/** Nearest-rank percentile of @p v (0 when empty). */
double percentile(std::vector<double> v, double p);

/**
 * Fixed single-threaded integer and random-access loop over a 2 MiB
 * table, independent of the simulator's code. It is timed before each
 * op; op wall / probe wall is the op's cost in host-speed units, which
 * moves much less than raw wall while the shared host drifts between
 * its fast and slow phases.
 */
class Probe
{
  public:
    /** @param iters Loop length; sized to about a tenth of an op. */
    Probe(std::uint64_t seed, std::uint32_t iters);
    /** Run the loop once; @return its wall time in ms. */
    double run();

  private:
    std::vector<std::uint32_t> table_;
    std::uint64_t seed_;
    std::uint32_t iters_;
    std::uint64_t sink_ = 0;
};

/** One traced call: name, interval, parent span and op id. */
struct Span
{
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
    std::uint64_t op = 0;
    std::vector<std::pair<std::string, double>> args;

    double ms() const { return msBetween(start, end); }
};

/**
 * Spans of a traced run, kept in memory and written once as a Chrome
 * trace when the run ends.
 */
class Tracer
{
  public:
    int begin(const std::string &name, int parent, std::uint64_t op);
    void end(int id);
    /** Record a span whose interval was measured elsewhere. */
    int add(const std::string &name, Clock::time_point start,
            Clock::time_point end, int parent, std::uint64_t op);
    void arg(int id, const std::string &key, double value);

    const std::vector<Span> &spans() const { return spans_; }
    const Span &span(int id) const { return spans_.at(id); }
    /** Sum of the durations of @p parent's direct children. */
    double childMs(int parent) const;
    /** Duration of @p parent's direct child named @p name (0 if none). */
    double childMs(int parent, const std::string &name) const;

    bool writeChrome(const std::string &path) const;

  private:
    std::vector<Span> spans_;
};

/** What one run measured, plus its failures. */
struct Report
{
    std::map<std::string, double> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** A failing op or set-up step; printed, and the run exits 1. */
    std::vector<std::string> errors;

    void error(const std::string &msg);
};

/** Timed set-up, repeated; @return the median wall in seconds. */
struct SetupTimer
{
    std::vector<double> seconds;
    double median() const;
};

/** o.setupReps, or @p workload_default when it is 0. */
inline std::uint32_t
setupReps(const Options &o, std::uint32_t workload_default)
{
    return o.setupReps ? o.setupReps : workload_default;
}

/** Peak resident set (VmHWM) of @p pid in MiB; 0 when unreadable. */
double peakRssMib(pid_t pid);
/** Reset @p pid's VmHWM to its current RSS (before an op). */
void resetPeakRss(pid_t pid);

/** Make @p dir and its parents; false on failure. */
bool makeDirs(const std::string &dir);

/**
 * Clean-up registry. Registered files are unlinked and the registered
 * daemon is stopped (SIGTERM drain, then SIGKILL) when the run ends
 * normally, fails, or is interrupted by SIGINT/SIGTERM/SIGHUP. The
 * signal path only uses async-signal-safe calls.
 */
void installCleanup();
void registerTempFile(const std::string &path);
void registerTempDir(const std::string &path);
void registerDaemon(pid_t pid);
/** The daemon was stopped and reaped by its owner. */
void forgetDaemon();
void cleanupAll();

Report runRecord(const Options &o);
Report runReplay(const Options &o);
Report runServe(const Options &o);
/** The --one-op mode of `record` and `replay`; @return the exit code. */
int runOneOp(const Options &o);

} // namespace rrbench

#endif // RRBENCH_COMMON_HH
