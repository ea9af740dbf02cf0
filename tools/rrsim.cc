/**
 * @file
 * rrsim — command-line driver for the RelaxReplay platform.
 *
 *   rrsim list
 *       List the bundled workloads.
 *   rrsim record <kernel> [--cores N] [--scale S] [--mode base|opt]
 *                [--interval CAP|inf] [--deps] [--out FILE.rrlog]
 *       Record a kernel; print recording statistics; with --out,
 *       stream the log to a persistent .rrlog container as intervals
 *       close (rnr::LogWriter; inspect it with the rrlog tool).
 *   rrsim replay <kernel|FILE.rrlog> [--cores N] [--scale S]
 *                [--mode ...] [--interval ...] [--deps] [--jobs N]
 *       With a kernel name: record, then replay in-process and verify
 *       determinism (--jobs N implies --deps). With a .rrlog file: load
 *       the recording from disk in this (separate) process, rebuild the
 *       workload from the file's metadata, replay, and verify the
 *       replayed memory, load-value hashes, load counts and instruction
 *       counts against the recorded summary. Logs with dependency edges
 *       replay on the multi-threaded engine (rnr::ParallelReplayer, N
 *       workers), others on the sequential replayer. Both forms run
 *       svc::replayAndVerify, the code the replay service runs.
 *   rrsim inspect <kernel> [...]
 *       Record and dump the first intervals of core 0's log.
 *   rrsim sweep <kernel|all> [--cores N] [--scale S] [--jobs J]
 *       Record one kernel (or the whole suite) under all four paper
 *       policies, the kernels concurrently on J host threads
 *       (sim::parallelFor), and report per-kernel log stats plus
 *       wall-clock and simulated-instruction throughput.
 *   rrsim serve [--socket PATH] [--tcp PORT] [--capacity N]
 *               [--quota N] [--exec-jobs N] [--timeout SEC]
 *               [--daemonize] [--pidfile FILE]
 *       Run the replay service daemon (svc::Server): a multi-tenant
 *       job queue over a Unix-domain (and optionally loopback TCP)
 *       socket speaking newline-delimited JSON. See docs/SERVICE.md.
 *   rrsim submit <record|replay|verify|stats> <kernel|FILE> [options]
 *   rrsim submit <ping|status|cancel|shutdown> [JOBID]
 *       Client for a running daemon: submit a job and stream its
 *       lifecycle events to stdout (exit code mirrors the one-shot
 *       commands), or poke the server.
 *
 * Exit codes (all subcommands, same convention as rrlog):
 *   0 success, 1 corrupt input / replay mismatch / job failed,
 *   2 usage error (including unknown kernels), 3 OS-level I/O error.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "machine/machine.hh"
#include "rnr/logstore.hh"
#include "rnr/parallel_schedule.hh"
#include "sim/faultinject.hh"
#include "sim/task_pool.hh"
#include "sim/trace.hh"
#include "svc/client.hh"
#include "svc/pipeline.hh"
#include "svc/server.hh"
#include "workloads/kernels.hh"

using namespace rr;

namespace
{

struct Options
{
    std::string command;
    std::string kernel;
    std::uint32_t cores = 8;
    std::uint64_t scale = 1;
    sim::RecorderMode mode = sim::RecorderMode::Opt;
    std::uint64_t interval = 0; // INF
    bool deps = false;
    sim::CoherenceKind coherence = sim::CoherenceKind::Snoopy;
    bool coherenceSet = false; // replay: explicit --coherence given
    std::uint32_t jobs = 0; // sweep/replay worker threads; 0 = all cores
    std::string outFile;
    std::string traceFile;
    std::string statsJson;
    std::string faults;          // --faults fault-plan spec
    std::uint64_t chunkBytes = 0; // --chunk-bytes; 0 = format default
    bool allowPartial = false;   // replay: accept partial/torn files

    // serve / submit (the replay service; see docs/SERVICE.md)
    std::string socketPath;      // --socket; default $RRSIM_SOCKET
    int tcpPort = 0;             // --tcp (serve: listen; submit: connect)
    std::uint64_t capacity = 1024; // --capacity: global queue bound
    std::uint64_t quota = 256;   // --quota: per-tenant queue bound
    std::uint32_t execJobs = 2;  // --exec-jobs: concurrent job slots
    double timeoutSec = 0.0;     // --timeout: per-job seconds (0 = off)
    bool daemonize = false;      // --daemonize: fork into background
    std::string pidfile;         // --pidfile: write daemon pid here
    std::string tenant = "default"; // --tenant
    std::uint64_t weight = 1;    // --weight: fair-share weight [1,100]
    std::string tag;             // --tag: correlation tag on events
    bool noWait = false;         // --no-wait: exit after acceptance
    bool noDrain = false;        // --no-drain: shutdown aborts jobs
    std::string submitOp;        // submit positional 1
    std::string submitTarget;    // submit positional 2
};

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: rrsim <list|record|replay|inspect|sweep|serve|submit> "
        "[kernel] [options]\n"
        "  --cores N        cores/threads, 1..256 (default 8)\n"
        "  --scale S        problem-size multiplier (default 1)\n"
        "  --mode base|opt  recorder design (default opt)\n"
        "  --interval N|inf max interval size (default inf)\n"
        "  --deps           record dependency edges (parallel replay)\n"
        "  --coherence K    coherence backend: snoopy (default) or "
        "directory\n"
        "                   (replay from .rrlog: must match the file's "
        "tag)\n"
        "  --jobs J         worker threads, 0..256: sweep recordings, or "
        "the replay engine\n"
        "                   (replay <kernel>: implies --deps; "
        "default: all host cores)\n"
        "  --out FILE       stream the recording to FILE.rrlog "
        "(record)\n"
        "  --trace FILE     write a Chrome-trace-format event trace "
        "(also: env RR_TRACE)\n"
        "  --stats-json FILE  export simulator statistics as JSON\n"
        "  --faults SPEC    inject faults per the comma-separated plan "
        "(also: env RR_FAULTS;\n"
        "                   see docs/ROBUSTNESS.md for the grammar)\n"
        "  --chunk-bytes N  .rrlog chunk flush threshold (record; "
        "default 64 KiB)\n"
        "  --allow-partial  replay: salvage and replay the consistent "
        "prefix of a\n"
        "                   partial or torn .rrlog instead of refusing "
        "it\n"
        "service (rrsim serve / rrsim submit; see docs/SERVICE.md):\n"
        "  --socket PATH    Unix socket (default $RRSIM_SOCKET or "
        "/tmp/rrsim.sock)\n"
        "  --tcp PORT       serve: also listen on 127.0.0.1:PORT; "
        "submit: connect there\n"
        "  --capacity N     serve: global queued-job bound (default "
        "1024)\n"
        "  --quota N        serve: per-tenant queued-job bound "
        "(default 256)\n"
        "  --exec-jobs N    serve: concurrently running jobs, 0..256 "
        "(default 2)\n"
        "  --timeout SEC    serve: default per-job timeout; submit: "
        "this job's timeout\n"
        "  --daemonize      serve: fork into the background once "
        "listening\n"
        "  --pidfile FILE   serve: write the daemon pid to FILE\n"
        "  --tenant NAME    submit: tenant for quota/fair-share "
        "(default 'default')\n"
        "  --weight W       submit: tenant fair-share weight 1..100\n"
        "  --tag TAG        submit: correlation tag echoed on events\n"
        "  --no-wait        submit: exit once the job is accepted\n"
        "  --no-drain       submit shutdown: abort queued/running "
        "jobs\n"
        "sweep takes a kernel name or 'all' for the whole suite.\n"
        "flags may appear before or after the command.\n");
    std::exit(2);
}

std::uint64_t
parseNum(const std::string &text)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        usage();
    errno = 0;
    const std::uint64_t v = std::strtoull(text.c_str(), nullptr, 10);
    if (errno == ERANGE)
        usage();
    return v;
}

/**
 * Parse @p flag's value as a 64-bit count and refuse (exit 2) one
 * outside [@p lo, @p hi], before anything narrows it.
 */
std::uint32_t
parseBounded(const std::string &flag, const std::string &text,
             std::uint64_t lo, std::uint64_t hi)
{
    const std::uint64_t v = parseNum(text);
    if (v < lo || v > hi) {
        std::fprintf(stderr, "rrsim: %s must be in [%llu,%llu], got %s\n",
                     flag.c_str(), (unsigned long long)lo,
                     (unsigned long long)hi, text.c_str());
        std::exit(2);
    }
    return static_cast<std::uint32_t>(v);
}

Options
parse(int argc, char **argv)
{
    Options o;
    // Normalize "--flag=value" into "--flag value" so every option
    // accepts both spellings.
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
            args.push_back(arg.substr(0, eq));
            args.push_back(arg.substr(eq + 1));
        } else {
            args.push_back(arg);
        }
    }
    std::vector<std::string> positional;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string arg = args[i];
        auto next = [&]() -> std::string {
            if (++i >= args.size())
                usage();
            return args[i];
        };
        if (arg.rfind("--", 0) != 0) {
            positional.push_back(arg);
        } else if (arg == "--trace") {
            o.traceFile = next();
        } else if (arg == "--stats-json") {
            o.statsJson = next();
        } else if (arg == "--cores") {
            o.cores = parseBounded(arg, next(), 1, svc::kMaxCores);
        } else if (arg == "--scale") {
            o.scale = parseNum(next());
        } else if (arg == "--mode") {
            const std::string m = next();
            if (m == "base")
                o.mode = sim::RecorderMode::Base;
            else if (m == "opt")
                o.mode = sim::RecorderMode::Opt;
            else
                usage();
        } else if (arg == "--interval") {
            const std::string v = next();
            o.interval = v == "inf" ? 0 : parseNum(v);
        } else if (arg == "--coherence") {
            if (!sim::parseCoherenceKind(next(), o.coherence))
                usage();
            o.coherenceSet = true;
        } else if (arg == "--deps") {
            o.deps = true;
        } else if (arg == "--jobs") {
            o.jobs = parseBounded(arg, next(), 0, svc::kMaxJobs);
        } else if (arg == "--out") {
            o.outFile = next();
        } else if (arg == "--faults") {
            o.faults = next();
        } else if (arg == "--chunk-bytes") {
            o.chunkBytes = parseNum(next());
        } else if (arg == "--allow-partial") {
            o.allowPartial = true;
        } else if (arg == "--socket") {
            o.socketPath = next();
        } else if (arg == "--tcp") {
            o.tcpPort =
                static_cast<int>(parseBounded(arg, next(), 1, 65535));
        } else if (arg == "--capacity") {
            o.capacity = parseNum(next());
        } else if (arg == "--quota") {
            o.quota = parseNum(next());
        } else if (arg == "--exec-jobs") {
            o.execJobs = parseBounded(arg, next(), 0, svc::kMaxJobs);
        } else if (arg == "--timeout") {
            const std::string v = next();
            char *end = nullptr;
            o.timeoutSec = std::strtod(v.c_str(), &end);
            if (v.empty() || (end && *end) || o.timeoutSec < 0.0)
                usage();
        } else if (arg == "--daemonize") {
            o.daemonize = true;
        } else if (arg == "--pidfile") {
            o.pidfile = next();
        } else if (arg == "--tenant") {
            o.tenant = next();
        } else if (arg == "--weight") {
            o.weight = parseNum(next());
        } else if (arg == "--tag") {
            o.tag = next();
        } else if (arg == "--no-wait") {
            o.noWait = true;
        } else if (arg == "--no-drain") {
            o.noDrain = true;
        } else {
            usage();
        }
    }
    if (positional.empty())
        usage();
    o.command = positional[0];
    if (o.command == "list") {
        if (positional.size() > 1)
            usage();
    } else if (o.command == "serve") {
        if (positional.size() != 1)
            usage();
    } else if (o.command == "submit") {
        if (positional.size() < 2 || positional.size() > 3)
            usage();
        o.submitOp = positional[1];
        if (positional.size() == 3)
            o.submitTarget = positional[2];
        const bool needs_target =
            o.submitOp == "record" || o.submitOp == "replay" ||
            o.submitOp == "verify" || o.submitOp == "stats" ||
            o.submitOp == "cancel";
        const bool bare = o.submitOp == "ping" ||
                          o.submitOp == "status" ||
                          o.submitOp == "shutdown";
        if (!needs_target && !bare)
            usage();
        if (needs_target && o.submitTarget.empty())
            usage();
        if (bare && !o.submitTarget.empty())
            usage();
        if (o.submitOp == "cancel" &&
            o.submitTarget.find_first_not_of("0123456789") !=
                std::string::npos)
            usage();
    } else {
        if (positional.size() != 2)
            usage();
        o.kernel = positional[1];
    }
    return o;
}

/** Export @p sets as JSON to @p path (the --stats-json flag). */
bool
writeStatsFile(const std::string &path,
               const std::vector<const sim::StatSet *> &sets)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return false;
    }
    sim::writeStatsJson(out, sets);
    std::printf("stats saved     %s\n", path.c_str());
    return true;
}

/** Export @p m's statistics plus @p extra (the --stats-json flag). */
bool
maybeExportStats(const Options &o, machine::Machine *m,
                 std::vector<const sim::StatSet *> extra = {})
{
    if (o.statsJson.empty())
        return true;
    std::vector<const sim::StatSet *> sets;
    if (m)
        m->collectStats(sets);
    sets.insert(sets.end(), extra.begin(), extra.end());
    return writeStatsFile(o.statsJson, sets);
}

/**
 * Whether a replay target names a file rather than a kernel: it ends
 * in .rrlog or exists. stat, not open: opening a FIFO blocks.
 */
bool
looksLikeLogFile(const std::string &name)
{
    const std::string suffix = ".rrlog";
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(),
                     suffix) == 0)
        return true;
    struct stat st;
    return ::stat(name.c_str(), &st) == 0;
}

/** The job a one-shot record/replay/inspect command runs. */
svc::JobParams
jobParams(const Options &o, svc::JobKind kind)
{
    svc::JobParams p;
    p.kind = kind;
    if (kind == svc::JobKind::Replay && looksLikeLogFile(o.kernel))
        p.file = o.kernel;
    else
        p.kernel = o.kernel;
    p.cores = o.cores;
    p.scale = o.scale;
    p.mode = o.mode;
    p.intervalCap = o.interval;
    // The engine needs the DAG: `replay <kernel> --jobs N` records it.
    p.deps = o.deps || (kind == svc::JobKind::Replay && o.jobs > 0);
    p.coherence = o.coherence;
    p.coherenceSet = o.coherenceSet;
    p.outFile = o.outFile;
    p.jobs = o.jobs;
    p.allowPartial = o.allowPartial;
    return p;
}

void
printRecordingStats(const svc::Recording &run, const svc::JobParams &p)
{
    const rnr::LogStats &stats = run.stats;
    std::printf("kernel          %s (scale %llu, %u cores)\n",
                p.kernel.c_str(), (unsigned long long)p.scale, p.cores);
    std::printf("recorder        RelaxReplay_%s, interval cap %s%s\n",
                sim::toString(p.mode),
                p.intervalCap ? std::to_string(p.intervalCap).c_str()
                              : "INF",
                p.deps ? ", dependency edges" : "");
    std::printf("coherence       %s\n", sim::toString(p.coherence));
    std::printf("instructions    %llu in %llu cycles (IPC/core %.2f)\n",
                (unsigned long long)run.rec.totalInstructions,
                (unsigned long long)run.rec.cycles,
                (double)run.rec.totalInstructions / run.rec.cycles /
                    p.cores);
    std::printf("intervals       %llu\n",
                (unsigned long long)stats.intervals);
    std::printf("reordered       %llu accesses (%.4f%% of all "
                "instructions)\n",
                (unsigned long long)stats.reordered(),
                100.0 * stats.reordered() /
                    std::max<std::uint64_t>(
                        1, stats.reordered() +
                               stats.inorderInstructions));
    std::printf("log size        %llu bits (%.1f bits/kinst, "
                "%.1f MB/s at 2GHz)\n",
                (unsigned long long)stats.totalBits,
                1000.0 * stats.totalBits / run.rec.totalInstructions,
                (double)stats.totalBits / run.rec.cycles * 2e9 / 8e6);
}

int
cmdRecord(const Options &o)
{
    const svc::JobParams p = jobParams(o, svc::JobKind::Record);
    svc::checkRecordable(p); // before the writer creates its .tmp
    std::unique_ptr<rnr::LogWriter> writer;
    if (!o.outFile.empty()) {
        rnr::WriterOptions wopts;
        if (o.chunkBytes != 0)
            wopts.chunkTargetBytes = o.chunkBytes;
        writer = std::make_unique<rnr::LogWriter>(
            o.outFile, svc::recordingMeta(p), wopts);
    }
    try {
        const svc::Recording run =
            svc::record(p, svc::CancelToken{}, writer.get());
        printRecordingStats(run, p);
        std::vector<const sim::StatSet *> extra;
        if (writer) {
            std::printf("log saved       %s (%llu bytes, %llu chunks%s)\n",
                        o.outFile.c_str(),
                        (unsigned long long)writer->bytesWritten(),
                        (unsigned long long)writer->stats().counterValue(
                            "chunks_written"),
                        (writer->headerFlags() & rnr::fmt::kFlagPartial)
                            ? ", PARTIAL: log budget reached"
                            : "");
            extra.push_back(&writer->stats());
        }
        if (sim::FaultInjector::enabled())
            extra.push_back(&sim::FaultInjector::get()->stats());
        return maybeExportStats(o, run.machine.get(), extra) ? 0 : 3;
    } catch (const rnr::LogStoreError &e) {
        // A planned crash-at fault firing is this run's expected
        // product: a torn staging file for `rrlog repair` to salvage.
        if (e.kind() == rnr::LogErrorKind::Crash && writer) {
            std::printf("injected crash  %s\n", e.what());
            std::printf("torn file       %s\n",
                        writer->currentPath().c_str());
            return 0;
        }
        throw;
    }
}

/** Describe the .rrlog a replay read. */
void
printLogFile(const svc::ReplayOutcome &r, const std::string &path)
{
    const rnr::RecordingMeta &meta = r.meta;
    if (r.verdict == svc::Verdict::PartialOk) {
        const svc::Salvage &s = r.salvage;
        std::printf("salvage         %llu intervals from %llu chunks "
                    "(%llu chunks dropped); %llu replayable after the "
                    "consistent cut at ts %llu\n",
                    (unsigned long long)s.intervals,
                    (unsigned long long)s.chunks,
                    (unsigned long long)s.droppedChunks,
                    (unsigned long long)s.kept,
                    (unsigned long long)s.cut);
    }
    std::printf("log file        %s (format v%u, fingerprint %016llx%s)\n",
                path.c_str(), r.fileVersion,
                (unsigned long long)r.fileFingerprint,
                r.filePartial ? ", partial" : "");
    std::printf("recording       %s, %u cores, scale %llu, "
                "RelaxReplay_%s, interval cap %s%s\n",
                meta.kernel.c_str(), meta.cores,
                (unsigned long long)meta.scale, sim::toString(meta.mode),
                meta.intervalCap
                    ? std::to_string(meta.intervalCap).c_str()
                    : "INF",
                meta.deps ? ", dependency edges" : "");
    std::printf("coherence       %s\n", sim::toString(meta.coherence));
}

/** The multi-threaded engine's measurements next to the model's. */
void
printEngineReport(const rnr::ReplayResult &res,
                  const rnr::ParallelSchedule &model)
{
    std::printf("parallel engine %u workers: %.1f ms wall, %llu "
                "dependency edges\n",
                res.workers, res.wallSeconds * 1e3,
                (unsigned long long)model.edges);
    std::printf("measured speedup %.2fx on %u workers (%.2f ms serial "
                "work in a %.2f ms schedule; modelled bound %.2fx)\n",
                res.measuredSpanSeconds > 0.0
                    ? res.measuredSerialSeconds / res.measuredSpanSeconds
                    : 1.0,
                res.workers, res.measuredSerialSeconds * 1e3,
                res.measuredSpanSeconds * 1e3, model.speedup());
    const auto &scalars = res.engineStats.scalars();
    const auto util = scalars.find("utilization");
    std::printf("utilization     %.0f%% mean worker busy over the "
                "replay wall clock\n",
                util == scalars.end() ? 0.0
                                      : 100.0 * util->second.mean());
}

/**
 * Replay a kernel (record it first) or a .rrlog file through the
 * shared replay-and-verify path and report its outcome.
 */
int
cmdReplay(const Options &o)
{
    const svc::JobParams p = jobParams(o, svc::JobKind::Replay);
    rnr::ParallelSchedule model;
    const svc::ReplayOutcome r =
        svc::replayAndVerify(p, svc::CancelToken{}, &model);
    const rnr::ReplayResult &res = r.result;

    if (r.recording)
        printRecordingStats(*r.recording, p);
    else
        printLogFile(r, p.file);
    if (r.parallel)
        printEngineReport(res, model);
    else if (r.recording)
        std::printf("sequential replay estimate: %llu user + %llu os "
                    "cycles (%.1fx recording)\n",
                    (unsigned long long)res.cost.userCycles,
                    (unsigned long long)res.cost.osCycles,
                    (double)res.cost.total() / r.recording->rec.cycles);

    for (const sim::CoreId c : r.mismatchedCores) {
        const rnr::CoreReplaySummary &cs = r.summary.cores[c];
        std::fprintf(stderr,
                     "core %u mismatch: load hash %016llx/%016llx, "
                     "loads %llu/%llu, instructions %llu/%llu "
                     "(replayed/recorded)\n",
                     c, (unsigned long long)res.loadHashes[c],
                     (unsigned long long)cs.loadValueHash,
                     (unsigned long long)res.loadCounts[c],
                     (unsigned long long)cs.retiredLoads,
                     (unsigned long long)res.contexts[c].instructions,
                     (unsigned long long)cs.retiredInstructions);
    }
    if (r.verdict == svc::Verdict::PartialOk)
        // A consistent prefix carries no end-state targets to check
        // against; success is the replay completing divergence-free.
        std::printf("partial replay  OK (%llu instructions replayed "
                    "divergence-free)\n",
                    (unsigned long long)res.instructions);
    else
        std::printf("determinism     %s (%llu instructions replayed%s)\n",
                    r.verdict == svc::Verdict::Ok ? "OK" : "MISMATCH",
                    (unsigned long long)res.instructions,
                    r.recording ? "" : " from disk");

    machine::Machine *m =
        r.recording ? r.recording->machine.get() : nullptr;
    if (!maybeExportStats(o, m, {&res.engineStats}))
        return 3;
    return r.verdict == svc::Verdict::Mismatch ? 1 : 0;
}

int
cmdInspect(const Options &o)
{
    const svc::JobParams p = jobParams(o, svc::JobKind::Record);
    const svc::Recording run = svc::record(p, svc::CancelToken{});
    printRecordingStats(run, p);
    const auto &log = run.rec.logs[0][0];
    const std::size_t show = std::min<std::size_t>(8, log.intervals.size());
    std::printf("\nfirst %zu intervals of core 0:\n", show);
    for (std::size_t i = 0; i < show; ++i) {
        const auto &iv = log.intervals[i];
        std::printf("  interval %zu (ts %llu)", i,
                    (unsigned long long)iv.timestamp);
        for (const auto &d : iv.predecessors)
            std::printf(" [after core%u#%llu]", d.core,
                        (unsigned long long)d.isn);
        std::printf(":\n");
        for (const auto &e : iv.entries)
            std::printf("    %s\n", rnr::describe(e).c_str());
    }
    return maybeExportStats(o, run.machine.get()) ? 0 : 3;
}

int
cmdSweep(const Options &o)
{
    std::vector<std::string> kernels;
    if (o.kernel == "all")
        kernels = workloads::kernelNames();
    else
        kernels.push_back(o.kernel);
    svc::JobParams check = jobParams(o, svc::JobKind::Record);
    for (const std::string &kernel : kernels) {
        check.kernel = kernel;
        svc::checkRecordable(check);
    }

    // The paper's four evaluation policies, recorded simultaneously.
    const std::vector<sim::RecorderConfig> pol = sim::fourPolicies();
    std::vector<machine::RecordingResult> recs(kernels.size());
    std::vector<std::vector<sim::StatSet>> job_stats(kernels.size());
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint32_t workers =
        sim::parallelFor(o.jobs, kernels.size(), [&](std::size_t i) {
            const sim::TraceJobScope trace(i, kernels[i]);
            workloads::WorkloadParams wp;
            wp.numThreads = o.cores;
            wp.scale = o.scale;
            const auto w = workloads::buildKernel(kernels[i], wp);
            sim::MachineConfig cfg;
            cfg.numCores = o.cores;
            cfg.coherence = o.coherence;
            machine::Machine m(cfg, w.program, pol);
            recs[i] = m.run(5'000'000'000ULL);
            if (!o.statsJson.empty()) {
                std::vector<const sim::StatSet *> sets;
                m.collectStats(sets);
                for (const sim::StatSet *s : sets)
                    job_stats[i].push_back(*s);
            }
        });
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

    std::printf("%-12s%12s%12s", "kernel", "instrs", "cycles");
    for (int p = 0; p < sim::kNumPolicies; ++p)
        std::printf("%12s", sim::policyName(p));
    std::printf("\n%48s (bits/kinst)\n", "");
    std::uint64_t instructions = 0;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        const auto &rec = recs[i];
        instructions += rec.totalInstructions;
        std::printf("%-12s%12llu%12llu", kernels[i].c_str(),
                    (unsigned long long)rec.totalInstructions,
                    (unsigned long long)rec.cycles);
        for (std::size_t p = 0; p < pol.size(); ++p) {
            rnr::LogStats stats;
            for (const auto &log : rec.logs[p])
                stats.accumulate(log);
            std::printf("%12.1f",
                        1000.0 * static_cast<double>(stats.totalBits) /
                            static_cast<double>(rec.totalInstructions));
        }
        std::printf("\n");
    }

    std::printf("[sweep] %zu jobs on %u workers: %.2fs wall, "
                "%.1fM simulated instructions, %.2fM instr/s\n",
                kernels.size(), workers, wall,
                static_cast<double>(instructions) / 1e6,
                wall > 0.0 ? static_cast<double>(instructions) / wall / 1e6
                           : 0.0);
    if (o.statsJson.empty())
        return 0;
    sim::StatSet aggregated("sweep");
    for (const auto &sets : job_stats)
        for (const sim::StatSet &s : sets)
            aggregated.mergeFrom(s);
    return writeStatsFile(o.statsJson, {&aggregated}) ? 0 : 3;
}

// --- replay service (rrsim serve / rrsim submit) ---------------------

svc::Server *g_server = nullptr;

void
onServeSignal(int sig)
{
    if (g_server)
        g_server->requestStop(sig != SIGINT); // SIGTERM drains
}

std::string
socketPathOf(const Options &o)
{
    if (!o.socketPath.empty())
        return o.socketPath;
    const char *env = std::getenv("RRSIM_SOCKET");
    if (env && *env)
        return env;
    return "/tmp/rrsim.sock";
}

/**
 * Fork the daemon. The parent polls the socket until the child
 * listens (then exits 0) or the child dies (then propagates its exit
 * code); the child detaches from the terminal and carries on.
 */
int
daemonizeParent(const std::string &sock, pid_t child)
{
    for (int i = 0; i < 100; ++i) {
        int status = 0;
        if (::waitpid(child, &status, WNOHANG) == child)
            return WIFEXITED(status) ? WEXITSTATUS(status) : 3;
        std::string err;
        if (svc::Client::connectUnix(sock, err))
            return 0;
        ::usleep(100 * 1000);
    }
    std::fprintf(stderr,
                 "rrsim: daemon did not start listening on %s\n",
                 sock.c_str());
    return 3;
}

int
cmdServe(const Options &o)
{
    const std::string sock = socketPathOf(o);
    if (o.daemonize) {
        const pid_t pid = ::fork();
        if (pid < 0) {
            std::fprintf(stderr, "rrsim: fork: %s\n",
                         std::strerror(errno));
            return 3;
        }
        if (pid > 0)
            return daemonizeParent(sock, pid);
        ::setsid();
        // Detach stdio so whoever spawned us (a ctest fixture, a
        // shell) does not wait on our inherited pipes.
        if (std::freopen("/dev/null", "r", stdin) == nullptr ||
            std::freopen("/dev/null", "w", stdout) == nullptr ||
            std::freopen("/dev/null", "w", stderr) == nullptr) {
            // Keep going; worst case the parent's pipes stay open.
        }
    }
    if (!o.pidfile.empty()) {
        std::ofstream pf(o.pidfile);
        if (!pf) {
            std::fprintf(stderr, "rrsim: cannot write pidfile %s\n",
                         o.pidfile.c_str());
            return 3;
        }
        pf << ::getpid() << "\n";
    }

    svc::Server::Options sopts;
    sopts.socketPath = sock;
    sopts.tcpPort = o.tcpPort;
    sopts.queue.capacity = o.capacity;
    sopts.queue.tenantQuota = o.quota;
    sopts.sched.executors = o.execJobs;
    sopts.sched.defaultTimeoutSec = o.timeoutSec;

    try {
        svc::Server server(sopts);
        g_server = &server;
        std::signal(SIGPIPE, SIG_IGN);
        std::signal(SIGTERM, onServeSignal);
        std::signal(SIGINT, onServeSignal);
        if (!o.daemonize) {
            std::printf("serving on      %s%s (capacity %llu, quota "
                        "%llu, %u executors)\n",
                        sock.c_str(),
                        o.tcpPort ? (" + 127.0.0.1:" +
                                     std::to_string(o.tcpPort))
                                        .c_str()
                                  : "",
                        (unsigned long long)o.capacity,
                        (unsigned long long)o.quota, o.execJobs);
            std::fflush(stdout);
        }
        server.run();
        g_server = nullptr;
    } catch (const std::runtime_error &e) {
        std::fprintf(stderr, "rrsim: serve: %s\n", e.what());
        return 3;
    }
    if (!o.pidfile.empty())
        std::remove(o.pidfile.c_str());
    return 0;
}

/** Compose the submit/control request line for the daemon. */
std::string
buildRequest(const Options &o)
{
    std::string j = "{\"op\":" + svc::jsonQuote(o.submitOp);
    j += ",\"tenant\":" + svc::jsonQuote(o.tenant);
    if (o.weight != 1)
        j += ",\"weight\":" + std::to_string(o.weight);
    if (!o.tag.empty())
        j += ",\"tag\":" + svc::jsonQuote(o.tag);
    if (o.timeoutSec > 0.0) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.3f", o.timeoutSec);
        j += ",\"timeout\":";
        j += buf;
    }
    if (o.submitOp == "record" || o.submitOp == "replay" ||
        o.submitOp == "verify" || o.submitOp == "stats") {
        const bool is_file = o.submitOp != "record" &&
                             (o.submitOp != "replay" ||
                              looksLikeLogFile(o.submitTarget));
        j += (is_file ? ",\"file\":" : ",\"kernel\":") +
             svc::jsonQuote(o.submitTarget);
        j += ",\"cores\":" + std::to_string(o.cores);
        j += ",\"scale\":" + std::to_string(o.scale);
        j += ",\"mode\":\"";
        j += o.mode == sim::RecorderMode::Base ? "base" : "opt";
        j += "\"";
        if (o.interval)
            j += ",\"interval\":" + std::to_string(o.interval);
        if (o.deps)
            j += ",\"deps\":true";
        if (o.coherenceSet)
            j += std::string(",\"coherence\":\"") +
                 sim::toString(o.coherence) + "\"";
        if (!o.outFile.empty())
            j += ",\"out\":" + svc::jsonQuote(o.outFile);
        if (o.jobs)
            j += ",\"jobs\":" + std::to_string(o.jobs);
        if (o.allowPartial)
            j += ",\"allowPartial\":true";
    } else if (o.submitOp == "cancel") {
        j += ",\"job\":" + o.submitTarget;
    } else if (o.submitOp == "shutdown") {
        j += std::string(",\"drain\":") +
             (o.noDrain ? "false" : "true");
    }
    j += "}";
    return j;
}

/** Exit code for a terminal event line, per the 0/1/2/3 convention. */
int
exitCodeForEvent(const svc::Json &ev)
{
    const std::string &kind = ev.get("event").asString();
    if (kind == "completed" || kind == "pong" || kind == "status" ||
        kind == "shutdown" || kind == "cancel_ok")
        return 0;
    if (kind == "failed") {
        const std::string &cls = ev.get("error").asString();
        if (cls == "INVALID")
            return 2;
        if (cls == "IO")
            return 3;
        return 1;
    }
    if (kind == "rejected")
        return ev.get("error").asString() == "BAD_REQUEST" ? 2 : 1;
    return 1; // cancelled, or something unrecognized
}

int
cmdSubmit(const Options &o)
{
    std::string err;
    std::optional<svc::Client> cli;
    if (o.tcpPort > 0)
        cli = svc::Client::connectTcp("127.0.0.1", o.tcpPort, err);
    else
        cli = svc::Client::connectUnix(socketPathOf(o), err);
    if (!cli) {
        std::fprintf(stderr, "rrsim: %s\n", err.c_str());
        return 3;
    }
    if (!cli->sendLine(buildRequest(o), err)) {
        std::fprintf(stderr, "rrsim: %s\n", err.c_str());
        return 3;
    }

    const bool is_job = o.submitOp == "record" ||
                        o.submitOp == "replay" ||
                        o.submitOp == "verify" || o.submitOp == "stats";
    std::uint64_t job = 0;
    for (;;) {
        std::optional<std::string> line = cli->readLine(err);
        if (!line) {
            std::fprintf(stderr, "rrsim: connection closed%s%s\n",
                         err.empty() ? "" : ": ", err.c_str());
            return 3;
        }
        std::printf("%s\n", line->c_str());
        std::fflush(stdout);
        std::string perr;
        std::optional<svc::Json> ev = svc::parseJson(*line, perr);
        if (!ev)
            continue;
        const std::string &kind = ev->get("event").asString();
        if (!is_job)
            return exitCodeForEvent(*ev);
        if (kind == "rejected")
            return exitCodeForEvent(*ev);
        if (kind == "accepted") {
            job = svc::eventJobId(*ev);
            if (o.noWait)
                return 0;
            continue;
        }
        if (svc::eventIsTerminal(*ev) && svc::eventJobId(*ev) == job)
            return exitCodeForEvent(*ev);
    }
}

int
dispatch(const Options &o)
{
    if (o.command == "record")
        return cmdRecord(o);
    if (o.command == "replay")
        return cmdReplay(o);
    if (o.command == "inspect")
        return cmdInspect(o);
    if (o.command == "sweep")
        return cmdSweep(o);
    if (o.command == "serve")
        return cmdServe(o);
    if (o.command == "submit")
        return cmdSubmit(o);
    usage();
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    if (o.command == "list") {
        for (const auto &name : workloads::kernelNames())
            std::printf("%s\n", name.c_str());
        return 0;
    }

    if (!o.traceFile.empty())
        sim::TraceSink::open(o.traceFile);
    else
        sim::TraceSink::openFromEnv();

    if (!o.faults.empty()) {
        try {
            sim::FaultInjector::install(sim::FaultPlan::parse(o.faults));
        } catch (const std::invalid_argument &e) {
            std::fprintf(stderr, "rrsim: bad --faults spec: %s\n",
                         e.what());
            return 2;
        }
    } else {
        sim::FaultInjector::installFromEnv();
    }
    if (sim::FaultInjector::enabled() &&
        sim::FaultInjector::get()->plan().any())
        std::printf("fault plan      %s\n",
                    sim::FaultInjector::get()->plan().describe().c_str());

    int rc;
    try {
        rc = dispatch(o);
    } catch (const svc::JobRefused &e) {
        std::fprintf(stderr, "rrsim: %s\n", e.what());
        rc = e.errorClass;
    } catch (const rnr::ReplayDivergence &d) {
        std::fprintf(stderr, "%s\n", d.report().format().c_str());
        rc = 1;
    } catch (const rnr::LogStoreError &e) {
        std::fprintf(stderr, "rrsim: %s\n", e.what());
        rc = e.kind() == rnr::LogErrorKind::Io ? 3 : 1;
    }
    sim::TraceSink::close();
    return rc;
}
