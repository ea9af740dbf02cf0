/**
 * @file
 * Shared infrastructure for the evaluation benches: the application
 * suite with its calibrated scales, the four recorder configurations
 * of the paper's evaluation, record helpers that run the sweep through
 * the parallel experiment engine (sim::SweepRunner), and table
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
#include "sim/sweep.hh"
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

/** Indices into fourPolicies() / RecordingResult::logs. */
enum PolicyIndex
{
    kBase4K = 0,
    kBaseInf = 1,
    kOpt4K = 2,
    kOptInf = 3,
    kNumPolicies = 4,
};

const char *policyName(int idx);

/** Base/Opt x 4K/INF, as evaluated throughout Section 5. */
std::vector<rr::sim::RecorderConfig> fourPolicies();

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
 * Record all jobs concurrently on opt.jobs host threads. Results are
 * indexed like @p jobs regardless of completion order, and each
 * recording is bit-identical to a serial run (jobs share no state).
 * Prints the throughput summary when opt.timing is set.
 */
std::vector<Recorded> recordAll(const std::vector<RecordJob> &jobs,
                                const BenchOptions &opt);

/** The whole app suite at one core count (the common figure pattern). */
std::vector<Recorded> recordSuite(std::uint32_t cores,
                                  const std::vector<rr::sim::RecorderConfig> &policies,
                                  const BenchOptions &opt);

/**
 * Run @p count independent post-processing tasks (replays, schedule
 * builds) on opt.jobs threads; task i must write only its own slots.
 */
void forEachParallel(std::size_t count, const BenchOptions &opt,
                     const std::function<void(std::size_t)> &task);

/**
 * Write @p logs to a temporary `.rrlog` and read them back through
 * LogReader::readAllParallel on @p jobs workers (0 = all host cores),
 * so the replay benches exercise the same read + parallel chunk
 * decode path as `rrsim replay` on a file. The round trip is
 * exact except IntervalRecord::cycle, which the format does not
 * persist (reporting-only; replay never reads it). The temporary file
 * is removed before returning.
 */
std::vector<rr::rnr::CoreLog>
roundTripThroughDisk(const std::vector<rr::rnr::CoreLog> &logs,
                     std::uint32_t jobs = 0);

/** Print the [sweep] summary line of a finished run. */
void printSweepStats(const rr::sim::SweepStats &stats);

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
