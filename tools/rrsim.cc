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
 *                [--mode ...] [--interval ...] [--parallel]
 *                [--parallel-replay] [--jobs N]
 *       With a kernel name: record, then replay in-process and verify
 *       determinism. With a .rrlog file: load the recording from disk
 *       in this (separate) process, rebuild the workload from the
 *       file's metadata, replay, and verify the replayed load-value
 *       hashes and instruction counts against the recorded summary.
 *       --parallel replays the dependency DAG's schedule order on one
 *       thread; --parallel-replay (or --jobs N) runs the real
 *       multi-threaded engine (rnr::ParallelReplayer) and reports
 *       measured wall-clock speedup over the sequential replayer.
 *   rrsim inspect <kernel> [...]
 *       Record and dump the first intervals of core 0's log.
 *   rrsim sweep <kernel|all> [--cores N] [--scale S] [--jobs J]
 *       Record one kernel (or the whole suite) under all four paper
 *       policies concurrently on J host threads via sim::SweepRunner,
 *       and report per-kernel log stats plus wall-clock and
 *       simulated-instruction throughput (self-timing mode).
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
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "machine/machine.hh"
#include "rnr/logstore.hh"
#include "rnr/parallel_replayer.hh"
#include "rnr/parallel_schedule.hh"
#include "rnr/patcher.hh"
#include "rnr/replayer.hh"
#include "sim/faultinject.hh"
#include "sim/sweep.hh"
#include "sim/trace.hh"
#include "svc/client.hh"
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
    bool parallel = false;
    bool parallelReplay = false; // multi-threaded replay engine
    std::uint32_t jobs = 0; // sweep/replay worker threads; 0 = all cores
    std::string outFile;
    std::string traceFile;
    std::string statsJson;
    std::string faults;          // --faults fault-plan spec
    std::uint64_t chunkBytes = 0; // --chunk-bytes; 0 = format default
    bool allowPartial = false;   // replay: accept partial/torn files
    rnr::IngestMode ingest = rnr::IngestMode::Auto; // --ingest

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
        "  --cores N        cores/threads (default 8)\n"
        "  --scale S        problem-size multiplier (default 1)\n"
        "  --mode base|opt  recorder design (default opt)\n"
        "  --interval N|inf max interval size (default inf)\n"
        "  --deps           record dependency edges (parallel replay)\n"
        "  --coherence K    coherence backend: snoopy (default) or "
        "directory\n"
        "                   (replay from .rrlog: must match the file's "
        "tag)\n"
        "  --parallel       replay in dependency-DAG order "
        "(single-threaded)\n"
        "  --parallel-replay  replay on the multi-threaded engine and "
        "report measured speedup\n"
        "  --jobs J         worker threads: sweep recordings, or the "
        "replay engine\n"
        "                   (replay: implies --parallel-replay; "
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
        "  --ingest MODE    .rrlog read path: auto (default; mmap with "
        "streamed\n"
        "                   fallback), mmap (zero-copy, required), or "
        "stream\n"
        "service (rrsim serve / rrsim submit; see docs/SERVICE.md):\n"
        "  --socket PATH    Unix socket (default $RRSIM_SOCKET or "
        "/tmp/rrsim.sock)\n"
        "  --tcp PORT       serve: also listen on 127.0.0.1:PORT; "
        "submit: connect there\n"
        "  --capacity N     serve: global queued-job bound (default "
        "1024)\n"
        "  --quota N        serve: per-tenant queued-job bound "
        "(default 256)\n"
        "  --exec-jobs N    serve: concurrently running jobs (default "
        "2)\n"
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
    return std::strtoull(text.c_str(), nullptr, 10);
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
            o.cores = static_cast<std::uint32_t>(parseNum(next()));
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
        } else if (arg == "--parallel") {
            o.parallel = true;
            o.deps = true;
        } else if (arg == "--parallel-replay") {
            o.parallelReplay = true;
            o.deps = true;
        } else if (arg == "--jobs") {
            o.jobs = static_cast<std::uint32_t>(parseNum(next()));
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
            o.tcpPort = static_cast<int>(parseNum(next()));
            if (o.tcpPort <= 0 || o.tcpPort > 65535)
                usage();
        } else if (arg == "--capacity") {
            o.capacity = parseNum(next());
        } else if (arg == "--quota") {
            o.quota = parseNum(next());
        } else if (arg == "--exec-jobs") {
            o.execJobs = static_cast<std::uint32_t>(parseNum(next()));
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
        } else if (arg == "--ingest") {
            const std::string m = next();
            if (m == "auto")
                o.ingest = rnr::IngestMode::Auto;
            else if (m == "mmap")
                o.ingest = rnr::IngestMode::Mmap;
            else if (m == "stream")
                o.ingest = rnr::IngestMode::Streamed;
            else
                usage();
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

bool
maybeExportStats(const Options &o, machine::Machine &m,
                 std::vector<const sim::StatSet *> extra = {})
{
    if (o.statsJson.empty())
        return true;
    std::vector<const sim::StatSet *> sets;
    m.collectStats(sets);
    sets.insert(sets.end(), extra.begin(), extra.end());
    return writeStatsFile(o.statsJson, sets);
}

struct Run
{
    workloads::Workload workload;
    std::unique_ptr<machine::Machine> machine;
    mem::BackingStore initial;
    machine::RecordingResult rec;
};

/** The .rrlog metadata describing a recording with these options. */
rnr::RecordingMeta
metaFor(const Options &o)
{
    const workloads::WorkloadParams wp; // source of the seed defaults
    const sim::MachineConfig cfg;
    rnr::RecordingMeta meta;
    meta.kernel = o.kernel;
    meta.cores = o.cores;
    meta.scale = o.scale;
    meta.intensity = wp.intensity;
    meta.workloadSeed = wp.seed;
    meta.machineSeed = cfg.seed;
    meta.mode = o.mode;
    meta.intervalCap = o.interval;
    meta.deps = o.deps;
    meta.coherence = o.coherence;
    return meta;
}

/** The replay-verification targets of a finished recording. */
rnr::RecordingSummary
summaryOf(const machine::RecordingResult &rec,
          std::size_t policy = 0)
{
    rnr::RecordingSummary s;
    s.totalInstructions = rec.totalInstructions;
    s.cycles = rec.cycles;
    s.memoryFingerprint = rec.memoryFingerprint;
    for (std::size_t c = 0; c < rec.cores.size(); ++c) {
        rnr::CoreReplaySummary core;
        core.intervals = rec.logs[policy][c].intervals.size();
        core.retiredInstructions = rec.cores[c].retiredInstructions;
        core.retiredLoads = rec.cores[c].retiredLoads;
        core.loadValueHash = rec.cores[c].loadValueHash;
        s.cores.push_back(core);
    }
    return s;
}

/** @param writer When set, streams policy 0's intervals during the run. */
Run
record(const Options &o, rnr::LogWriter *writer = nullptr)
{
    workloads::WorkloadParams wp;
    wp.numThreads = o.cores;
    wp.scale = o.scale;
    Run run;
    run.workload = workloads::buildKernel(o.kernel, wp);

    sim::MachineConfig cfg;
    cfg.numCores = o.cores;
    cfg.coherence = o.coherence;
    std::vector<sim::RecorderConfig> policies(1);
    policies[0].mode = o.mode;
    policies[0].maxIntervalInstructions = o.interval;
    policies[0].recordDependencies = o.deps;

    run.machine = std::make_unique<machine::Machine>(
        cfg, run.workload.program, policies);
    if (writer) {
        run.machine->setIntervalSink(
            0, [writer](sim::CoreId core, const rnr::IntervalRecord &iv) {
                writer->append(core, iv);
            });
    }
    run.initial = run.machine->initialMemory();
    run.rec = run.machine->run();
    return run;
}

void
printRecordingStats(const Run &run, const Options &o)
{
    rnr::LogStats stats;
    for (const auto &log : run.rec.logs[0])
        stats.accumulate(log);
    std::printf("kernel          %s (scale %llu, %u cores)\n",
                o.kernel.c_str(), (unsigned long long)o.scale, o.cores);
    std::printf("recorder        RelaxReplay_%s, interval cap %s%s\n",
                sim::toString(o.mode),
                o.interval ? std::to_string(o.interval).c_str() : "INF",
                o.deps ? ", dependency edges" : "");
    std::printf("coherence       %s\n", sim::toString(o.coherence));
    std::printf("instructions    %llu in %llu cycles (IPC/core %.2f)\n",
                (unsigned long long)run.rec.totalInstructions,
                (unsigned long long)run.rec.cycles,
                (double)run.rec.totalInstructions / run.rec.cycles /
                    o.cores);
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
    std::unique_ptr<rnr::LogWriter> writer;
    if (!o.outFile.empty()) {
        rnr::WriterOptions wopts;
        if (o.chunkBytes != 0)
            wopts.chunkTargetBytes = o.chunkBytes;
        writer = std::make_unique<rnr::LogWriter>(o.outFile, metaFor(o),
                                                  wopts);
    }
    try {
        Run run = record(o, writer.get());
        printRecordingStats(run, o);
        std::vector<const sim::StatSet *> extra;
        if (writer) {
            writer->finish(summaryOf(run.rec));
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
        return maybeExportStats(o, *run.machine, extra) ? 0 : 3;
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

/**
 * Replay a .rrlog file in this (fresh) process: rebuild the workload
 * from the file's metadata, reconstruct and patch the per-core logs,
 * replay, and verify every per-core load-value hash and instruction
 * count plus the final memory image against the recorded summary.
 */
int
cmdReplayFile(const Options &o)
{
    rnr::LogReader reader(o.kernel, o.ingest);
    const rnr::RecordingMeta &meta = reader.meta();

    // Full verification (against the recorded summary) only makes sense
    // when the file holds the complete recording. With --allow-partial
    // we salvage the longest consistent prefix instead and verify that
    // it replays divergence-free.
    bool verify_full = true;
    rnr::RecordingSummary summary;
    std::vector<rnr::CoreLog> logs;
    if (o.allowPartial) {
        rnr::RecoveryResult rec = reader.recoverPrefix();
        const bool sound = rec.cleanEnd && rec.hasSummary &&
                           rec.issues.empty() && !reader.partial();
        logs = std::move(rec.logs);
        if (sound) {
            summary = rec.summary;
        } else {
            verify_full = false;
            const std::uint64_t cut =
                rnr::consistentCut(logs, rec.coreTruncated);
            std::uint64_t kept = 0;
            for (const auto &log : logs)
                kept += log.intervals.size();
            std::printf("salvage         %llu intervals from %llu "
                        "chunks (%llu chunks dropped); %llu replayable "
                        "after the consistent cut at ts %llu\n",
                        (unsigned long long)rec.salvagedIntervals,
                        (unsigned long long)rec.salvagedChunks,
                        (unsigned long long)rec.droppedChunks,
                        (unsigned long long)kept,
                        (unsigned long long)cut);
        }
    } else {
        if (reader.partial()) {
            std::fprintf(stderr,
                         "rrsim: %s is flagged as a partial recording; "
                         "replay it with --allow-partial\n",
                         o.kernel.c_str());
            return 1;
        }
        // Chunk payloads decode concurrently (identical result and
        // errors to readAll); --jobs bounds the decode fan-out too.
        // Decoding first caches the Summary chunk for summary().
        logs = reader.readAllParallel(o.jobs);
        summary = reader.summary();
    }

    std::printf("log file        %s (format v%u, fingerprint %016llx%s)\n",
                o.kernel.c_str(), reader.version(),
                (unsigned long long)reader.fingerprint(),
                reader.partial() ? ", partial" : "");
    std::printf("recording       %s, %u cores, scale %llu, "
                "RelaxReplay_%s, interval cap %s%s\n",
                meta.kernel.c_str(), meta.cores,
                (unsigned long long)meta.scale, sim::toString(meta.mode),
                meta.intervalCap
                    ? std::to_string(meta.intervalCap).c_str()
                    : "INF",
                meta.deps ? ", dependency edges" : "");
    std::printf("coherence       %s\n", sim::toString(meta.coherence));

    // The log's protocol tag decides the machine; an explicit
    // --coherence that disagrees is a request for the wrong machine
    // and is refused rather than silently overridden.
    if (o.coherenceSet && o.coherence != meta.coherence) {
        std::fprintf(stderr,
                     "rrsim: %s was recorded under %s coherence; "
                     "refusing to replay it on a %s machine\n",
                     o.kernel.c_str(), sim::toString(meta.coherence),
                     sim::toString(o.coherence));
        return 1;
    }

    workloads::WorkloadParams wp;
    wp.numThreads = meta.cores;
    wp.scale = meta.scale;
    wp.intensity = meta.intensity;
    wp.seed = meta.workloadSeed;
    const auto w = workloads::buildKernel(meta.kernel, wp);

    // A fresh machine only to materialize the initial memory image the
    // recording started from (deterministic given program + config).
    sim::MachineConfig cfg;
    cfg.numCores = meta.cores;
    cfg.seed = meta.machineSeed;
    cfg.coherence = meta.coherence;
    std::vector<sim::RecorderConfig> policies(1);
    policies[0].mode = meta.mode;
    machine::Machine m(cfg, w.program, policies);

    for (auto &log : logs)
        log = rnr::patch(std::move(log));

    bool engine = o.parallelReplay || o.jobs > 0;
    if (engine && !meta.deps) {
        std::fprintf(stderr,
                     "%s was recorded without dependency edges; "
                     "replaying sequentially\n",
                     o.kernel.c_str());
        engine = false;
    }

    std::vector<rnr::Replayer::OrderItem> order;
    if (!engine && o.parallel && meta.deps) {
        const auto sched = rnr::buildParallelSchedule(logs);
        for (const auto &node : sched.order)
            order.push_back({node.core, node.index});
    } else if (!engine && o.parallel) {
        std::fprintf(stderr,
                     "%s was recorded without dependency edges; "
                     "replaying sequentially\n",
                     o.kernel.c_str());
    }

    rnr::ReplayResult res;
    try {
        if (engine) {
            rnr::ParallelReplayOptions popts;
            popts.workers = o.jobs;
            rnr::ParallelReplayer rep(w.program, std::move(logs),
                                      m.initialMemory().clone(), popts);
            res = rep.run();
            std::printf("parallel engine %u workers, %.1f ms replay "
                        "wall clock, measured speedup %.2fx\n",
                        res.workers, res.wallSeconds * 1e3,
                        res.measuredSpanSeconds > 0.0
                            ? res.measuredSerialSeconds /
                                  res.measuredSpanSeconds
                            : 1.0);
        } else {
            rnr::Replayer rep(w.program, std::move(logs),
                              m.initialMemory().clone());
            res = order.empty() ? rep.run() : rep.runInOrder(order);
        }
    } catch (const rnr::ReplayDivergence &d) {
        std::fprintf(stderr,
                     "replay of %s diverged at core %u, interval %u:\n%s\n",
                     o.kernel.c_str(), d.report().core,
                     d.report().intervalIndex,
                     d.report().format().c_str());
        return 1;
    }

    if (!verify_full) {
        // A consistent prefix carries no end-state targets to check
        // against; success is the replay completing divergence-free.
        std::printf("partial replay  OK (%llu instructions replayed "
                    "divergence-free)\n",
                    (unsigned long long)res.instructions);
        return 0;
    }

    bool ok = res.memory.fingerprint() == summary.memoryFingerprint &&
              res.instructions == summary.totalInstructions;
    for (sim::CoreId c = 0; c < meta.cores; ++c) {
        const auto &cs = summary.cores[c];
        if (res.loadHashes[c] != cs.loadValueHash ||
            res.loadCounts[c] != cs.retiredLoads ||
            res.contexts[c].instructions != cs.retiredInstructions) {
            std::fprintf(stderr,
                         "core %u mismatch: load hash %016llx/%016llx, "
                         "loads %llu/%llu, instructions %llu/%llu "
                         "(replayed/recorded)\n",
                         c, (unsigned long long)res.loadHashes[c],
                         (unsigned long long)cs.loadValueHash,
                         (unsigned long long)res.loadCounts[c],
                         (unsigned long long)cs.retiredLoads,
                         (unsigned long long)
                             res.contexts[c].instructions,
                         (unsigned long long)cs.retiredInstructions);
            ok = false;
        }
    }
    std::printf("determinism     %s (%llu instructions replayed "
                "from disk)\n",
                ok ? "OK" : "MISMATCH",
                (unsigned long long)res.instructions);
    return ok ? 0 : 1;
}

bool
looksLikeLogFile(const std::string &name)
{
    const std::string suffix = ".rrlog";
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(),
                     suffix) == 0)
        return true;
    std::ifstream probe(name, std::ios::binary);
    return probe.good();
}

/**
 * Replay @p patched on the multi-threaded engine AND the sequential
 * replayer, verify both against the recording (and each other), and
 * report the measured wall-clock speedup next to the cost model's
 * bound.
 */
int
runEngineReplay(const Options &o, Run &run,
                const std::vector<rnr::CoreLog> &patched)
{
    auto verify = [&](const rnr::ReplayResult &res) {
        bool ok =
            res.memory.fingerprint() == run.rec.memoryFingerprint &&
            res.instructions == run.rec.totalInstructions;
        for (sim::CoreId c = 0; c < o.cores && ok; ++c)
            ok = res.loadHashes[c] == run.rec.cores[c].loadValueHash;
        return ok;
    };

    rnr::Replayer seq(run.workload.program, patched,
                      run.initial.clone());
    const rnr::ReplayResult seq_res = seq.run();

    rnr::ParallelReplayOptions popts;
    popts.workers = o.jobs;
    rnr::ParallelReplayer par(run.workload.program, patched,
                              run.initial.clone(), popts);
    const rnr::ReplayResult par_res = par.run();

    const auto sched = rnr::buildParallelSchedule(patched);
    std::printf("parallel engine %u workers: %.1f ms wall (%.1f ms "
                "sequential), %llu dependency edges\n",
                par_res.workers, par_res.wallSeconds * 1e3,
                seq_res.wallSeconds * 1e3,
                (unsigned long long)sched.edges);
    std::printf("measured speedup %.2fx on %u workers (%.2f ms serial "
                "work in a %.2f ms schedule; modelled bound %.2fx)\n",
                par_res.measuredSpanSeconds > 0.0
                    ? par_res.measuredSerialSeconds /
                          par_res.measuredSpanSeconds
                    : 1.0,
                par_res.workers,
                par_res.measuredSerialSeconds * 1e3,
                par_res.measuredSpanSeconds * 1e3, sched.speedup());
    const auto &scalars = par_res.engineStats.scalars();
    const auto util = scalars.find("utilization");
    std::printf("utilization     %.0f%% mean worker busy over the "
                "replay wall clock\n",
                util == scalars.end() ? 0.0
                                      : 100.0 * util->second.mean());

    const bool ok = verify(seq_res) && verify(par_res) &&
                    par_res.cost.total() == seq_res.cost.total();
    std::printf("determinism     %s (%llu instructions replayed on "
                "both engines)\n",
                ok ? "OK" : "MISMATCH",
                (unsigned long long)par_res.instructions);
    if (!maybeExportStats(o, *run.machine, {&par_res.engineStats}))
        return 3;
    return ok ? 0 : 1;
}

int
cmdReplay(const Options &o)
{
    if (looksLikeLogFile(o.kernel))
        return cmdReplayFile(o);
    Options ro = o;
    if (ro.parallelReplay || ro.jobs > 0) {
        ro.parallelReplay = true; // --jobs N implies the engine
        ro.deps = true;           // the engine needs the DAG
    }
    Run run = record(ro);
    printRecordingStats(run, ro);

    std::vector<rnr::CoreLog> patched;
    for (auto &log : run.rec.logs[0])
        patched.push_back(rnr::patch(std::move(log)));

    if (ro.parallelReplay)
        return runEngineReplay(ro, run, patched);

    rnr::Replayer rep(run.workload.program, patched,
                      run.initial.clone());
    rnr::ReplayResult res;
    if (o.parallel) {
        const auto sched = rnr::buildParallelSchedule(patched);
        std::vector<rnr::Replayer::OrderItem> order;
        for (const auto &node : sched.order)
            order.push_back({node.core, node.index});
        res = rep.runInOrder(order);
        std::printf("parallel replay %llu-cycle makespan, speedup "
                    "%.2fx over sequential (%llu edges)\n",
                    (unsigned long long)sched.makespan, sched.speedup(),
                    (unsigned long long)sched.edges);
    } else {
        res = rep.run();
        std::printf("sequential replay estimate: %llu user + %llu os "
                    "cycles (%.1fx recording)\n",
                    (unsigned long long)res.cost.userCycles,
                    (unsigned long long)res.cost.osCycles,
                    (double)res.cost.total() / run.rec.cycles);
    }

    const bool ok =
        res.memory.fingerprint() == run.rec.memoryFingerprint &&
        res.instructions == run.rec.totalInstructions;
    std::printf("determinism     %s (%llu instructions replayed)\n",
                ok ? "OK" : "MISMATCH",
                (unsigned long long)res.instructions);
    if (!maybeExportStats(o, *run.machine))
        return 3;
    return ok ? 0 : 1;
}

int
cmdInspect(const Options &o)
{
    Run run = record(o);
    printRecordingStats(run, o);
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
        for (const auto &e : iv.entries) {
            switch (e.kind) {
              case rnr::EntryKind::InorderBlock:
                std::printf("    InorderBlock    %llu instructions\n",
                            (unsigned long long)e.blockSize);
                break;
              case rnr::EntryKind::ReorderedLoad:
                std::printf("    ReorderedLoad   value=%llu\n",
                            (unsigned long long)e.loadValue);
                break;
              case rnr::EntryKind::ReorderedStore:
                std::printf("    ReorderedStore  addr=0x%llx value=%llu "
                            "offset=%u\n",
                            (unsigned long long)e.addr,
                            (unsigned long long)e.storeValue, e.offset);
                break;
              case rnr::EntryKind::ReorderedAtomic:
                std::printf("    ReorderedAtomic addr=0x%llx old=%llu "
                            "new=%llu offset=%u\n",
                            (unsigned long long)e.addr,
                            (unsigned long long)e.loadValue,
                            (unsigned long long)e.storeValue, e.offset);
                break;
              default:
                std::printf("    %s\n", rnr::toString(e.kind));
                break;
            }
        }
    }
    return maybeExportStats(o, *run.machine) ? 0 : 3;
}

int
cmdSweep(const Options &o)
{
    std::vector<std::string> kernels;
    if (o.kernel == "all")
        kernels = workloads::kernelNames();
    else
        kernels.push_back(o.kernel);

    // The paper's four evaluation policies, recorded simultaneously.
    std::vector<sim::RecorderConfig> pol(4);
    pol[0].mode = sim::RecorderMode::Base;
    pol[0].maxIntervalInstructions = 4096;
    pol[1].mode = sim::RecorderMode::Base;
    pol[1].maxIntervalInstructions = 0;
    pol[2].mode = sim::RecorderMode::Opt;
    pol[2].maxIntervalInstructions = 4096;
    pol[3].mode = sim::RecorderMode::Opt;
    pol[3].maxIntervalInstructions = 0;
    const char *pol_names[4] = {"Base-4K", "Base-INF", "Opt-4K",
                                "Opt-INF"};

    sim::SweepRunner runner(o.jobs);
    std::vector<machine::RecordingResult> recs(kernels.size());
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        runner.enqueue(kernels[i], [&, i] {
            workloads::WorkloadParams wp;
            wp.numThreads = o.cores;
            wp.scale = o.scale;
            const auto w = workloads::buildKernel(kernels[i], wp);
            sim::MachineConfig cfg;
            cfg.numCores = o.cores;
            cfg.coherence = o.coherence;
            machine::Machine m(cfg, w.program, pol);
            recs[i] = m.run(5'000'000'000ULL);
            runner.countInstructions(recs[i].totalInstructions);
            if (!o.statsJson.empty()) {
                std::vector<const sim::StatSet *> sets;
                m.collectStats(sets);
                for (const sim::StatSet *s : sets)
                    runner.accumulateStats(*s);
            }
        });
    }
    runner.run();

    std::printf("%-12s%12s%12s", "kernel", "instrs", "cycles");
    for (const char *name : pol_names)
        std::printf("%12s", name);
    std::printf("\n%48s (bits/kinst)\n", "");
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        const auto &rec = recs[i];
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

    const sim::SweepStats &stats = runner.lastStats();
    std::printf("[sweep] %llu jobs on %u workers: %.2fs wall, "
                "%.1fM simulated instructions, %.2fM instr/s\n",
                (unsigned long long)stats.jobsRun, stats.workers,
                stats.wallSeconds,
                static_cast<double>(stats.totalInstructions) / 1e6,
                stats.instructionsPerSecond() / 1e6);
    if (!o.statsJson.empty() &&
        !writeStatsFile(o.statsJson, {&runner.aggregatedStats()}))
        return 3;
    return 0;
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
                        server.boundTcpPort()
                            ? (" + 127.0.0.1:" +
                               std::to_string(server.boundTcpPort()))
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
        if (o.ingest != rnr::IngestMode::Auto)
            j += std::string(",\"ingest\":\"") +
                 (o.ingest == rnr::IngestMode::Mmap ? "mmap"
                                                    : "stream") +
                 "\"";
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

bool
knownKernelCli(const std::string &name)
{
    const auto &names = workloads::kernelNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

int
dispatch(const Options &o)
{
    // Unknown kernels are usage errors (exit 2), caught up front —
    // workloads::buildKernel() aborts the process on unknown names.
    const bool kernel_cmd =
        o.command == "record" || o.command == "inspect" ||
        (o.command == "sweep" && o.kernel != "all") ||
        (o.command == "replay" && !looksLikeLogFile(o.kernel));
    if (kernel_cmd && !knownKernelCli(o.kernel)) {
        std::fprintf(stderr,
                     "rrsim: unknown kernel '%s' (see `rrsim list`)\n",
                     o.kernel.c_str());
        return 2;
    }
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
