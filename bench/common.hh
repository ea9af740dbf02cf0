/**
 * @file
 * Shared infrastructure for the evaluation benches: the application
 * suite with its calibrated scales, record helpers that fan the sweep
 * out through sim::parallelFor, the worker-count parser, and table
 * printing. Every bench accepts `--jobs N` (host threads; default all
 * cores, also settable via the RR_JOBS environment variable) and
 * `--timing` (print wall-clock and simulated-instruction throughput).
 */

#ifndef RR_BENCH_COMMON_HH
#define RR_BENCH_COMMON_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "machine/machine.hh"
#include "rnr/log.hh"
#include "sim/config.hh"
#include "workloads/kernels.hh"

namespace rrbench
{

/** One application of the evaluation suite. */
struct App
{
    std::string name;
    /** Scale calibrated for roughly 1-3M instructions on 8 cores. */
    std::uint64_t scale;
};

/** The ten SPLASH-2-style applications, in the figures' order. */
const std::vector<App> &apps();

/** The paper's four recorder policies (sim/config.hh). */
using enum rr::sim::PolicyIndex;
using rr::sim::fourPolicies;
using rr::sim::policyName;

/** A completed recording, with the machine kept alive for its stats. */
struct Recorded
{
    rr::workloads::Workload workload;
    std::unique_ptr<rr::machine::Machine> machine;
    rr::mem::BackingStore initial;
    rr::machine::RecordingResult result;

    /** Counted memory-access instructions, summed over cores. */
    std::uint64_t countedMem() const;
    /** Aggregate a policy's logs. */
    rr::rnr::LogStats logStats(int policy) const;
    /** Sum of a recorder-stat counter over all cores. */
    std::uint64_t recorderCounter(int policy, const std::string &c) const;
    /** Sum of a hub-stat counter over all cores. */
    std::uint64_t hubCounter(const std::string &c) const;
};

/** Record one app; uses the calibrated scale unless overridden. */
Recorded record(const App &app, std::uint32_t cores,
                std::vector<rr::sim::RecorderConfig> policies,
                rr::sim::CoherenceKind coherence =
                    rr::sim::CoherenceKind::Snoopy);

/** Common bench command-line options. */
struct BenchOptions
{
    /** Concurrent recording jobs; 0 means all host cores. */
    std::uint32_t jobs = 0;
    /** Print the [sweep] wall-clock / throughput summary line. */
    bool timing = false;
    /** Export the aggregated recording stats as JSON after recordAll. */
    std::string statsJson;
    /** Coherence backend for every recording (`--coherence`). */
    rr::sim::CoherenceKind coherence = rr::sim::CoherenceKind::Snoopy;
};

/** Prints a bench's usage to stderr and exits 2. */
using UsageFn = void (*)(const char *prog);

/**
 * The one parser of a bench's worker count. jobsFromEnv() reads
 * RR_JOBS (0 when unset or empty). jobsFlag() reads argv[i] when it is
 * `--jobs N`, `-j N` or `--jobs=N`, moves i past the value and returns
 * true; it returns false for any other argument. A count is digits
 * only, in [0, svc::kMaxJobs] (0 = all host cores); anything else, or
 * a flag without a value, calls @p usage.
 */
std::uint32_t jobsFromEnv(const char *prog, UsageFn usage);
bool jobsFlag(int argc, char **argv, int &i, std::uint32_t &jobs,
              UsageFn usage);

/**
 * Parse `--jobs N` / `-j N` / `--timing` / `--stats-json FILE` /
 * `--coherence snoopy|directory`; honors RR_JOBS when the flag is
 * absent and opens the trace sink when RR_TRACE is set. Exits with a
 * usage message on unknown arguments.
 */
BenchOptions parseBenchOptions(int argc, char **argv);

/** One recording of a sweep: app x core count x policy set. */
struct RecordJob
{
    App app;
    std::uint32_t cores = 8;
    std::vector<rr::sim::RecorderConfig> policies;
    rr::sim::CoherenceKind coherence = rr::sim::CoherenceKind::Snoopy;
};

/**
 * Record all jobs concurrently on opt.jobs host threads
 * (sim::parallelFor). Results are indexed like @p jobs regardless of
 * completion order, and each recording is bit-identical to a serial
 * run (jobs share no state). Prints the `[sweep]` throughput line when
 * opt.timing is set, and exports the recordings' stats, merged in job
 * order, when opt.statsJson is.
 */
std::vector<Recorded> recordAll(const std::vector<RecordJob> &jobs,
                                const BenchOptions &opt);

/** The whole app suite at one core count (the common figure pattern). */
std::vector<Recorded> recordSuite(std::uint32_t cores,
                                  const std::vector<rr::sim::RecorderConfig> &policies,
                                  const BenchOptions &opt);

/**
 * Write @p logs to a temporary `.rrlog` and read them back through
 * LogReader::readAll, so the replay benches exercise the same read and
 * decode path as `rrsim replay` on a file. The round trip is exact
 * except IntervalRecord::cycle, which the format does not persist
 * (reporting-only; replay never reads it). The temporary file is
 * removed before returning.
 */
std::vector<rr::rnr::CoreLog>
roundTripThroughDisk(const std::vector<rr::rnr::CoreLog> &logs);

/** Bits-per-kiloinstruction of a policy's aggregate log. */
double bitsPerKinst(const Recorded &r, int policy);

/**
 * Log generation rate in MB/s at the paper's 2 GHz clock:
 * bits / cycles * 2e9 / 8 / 1e6.
 */
double logRateMBps(const Recorded &r, int policy);

/** Simple fixed-width table printing. */
void printTitle(const std::string &title);
void printColumns(const std::vector<std::string> &cols);
void printCell(const std::string &text);
void printCell(double value, int precision = 2);
void endRow();

} // namespace rrbench

#endif // RR_BENCH_COMMON_HH
