/**
 * @file
 * Replay data-path throughput microbenchmark: records the largest
 * suite kernel (lu, scale 24, 8 cores) with dependency edges, persists
 * the patched logs to a `.rrlog`, then times every stage of the
 * disk-to-memory replay pipeline:
 *
 *  - decode_sequential   chunks read and decoded as the chunk walk
 *                        reaches them (LogReader::readAll);
 *  - replay_sequential   end-to-end: decode + the one-worker replay,
 *                        which walks the recorded order (the
 *                        pre-optimization disk-replay path, and the
 *                        baseline of the 2x gate);
 *  - replay_parallel     end-to-end: decode + the engine fanned out
 *                        over the segment DAG (the shipping path);
 *  - replay_parallel_directory  the shipping path on a log recorded
 *                        under the home-directory coherence backend
 *                        (Section 4.3) — different log shape, same
 *                        data path; informational, outside the gate.
 *
 * Every stage reports wall-clock intervals/sec and MiB/s (of on-disk
 * log bytes); results land in BENCH_replay_throughput.json for
 * tools/perf_compare.py. All three replays must agree on memory
 * fingerprint and instruction count.
 *
 * The gated end-to-end speedup is host-core-count independent, per
 * the repo's fig15 methodology (docs/REPLAY.md, "Measured speedup"):
 * raw wall-clock only shows parallel gains when the host really has
 * >= workers free cores, so the new path's time is the measured
 * one-thread decode (the decode_sequential stage) plus the fanned-out
 * engine's measured schedule span on `workers` lanes, against the
 * honestly single-threaded wall of decode + sequential replay. Unless
 * --tiny, the run fails below 2x.
 */

#include "bench/common.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "rnr/logstore.hh"
#include "rnr/patcher.hh"
#include "rnr/replayer.hh"
#include "sim/jobs.hh"
#include "sim/logging.hh"

namespace
{

using namespace rr;

struct Options
{
    std::uint32_t jobs = 0; ///< engine workers; 0 = all cores
    bool tiny = false;      ///< CI smoke: small kernel, no 2x gate
    std::string json = "BENCH_replay_throughput.json";
};

[[noreturn]] void
usage(const char *prog)
{
    std::fprintf(stderr,
                 "usage: %s [--jobs N] [--tiny] [--json FILE]\n"
                 "  --jobs N     replay workers, 0..256 "
                 "(default 0: all host cores; env RR_JOBS)\n"
                 "  --tiny       small kernel, skip the 2x gate "
                 "(CI smoke)\n"
                 "  --json FILE  output file "
                 "(default BENCH_replay_throughput.json)\n",
                 prog);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    o.jobs = rrbench::jobsFromEnv(argv[0], usage);
    for (int i = 1; i < argc; ++i) {
        if (rrbench::jobsFlag(argc, argv, i, o.jobs, usage))
            continue;
        const std::string arg = argv[i];
        if (arg == "--tiny")
            o.tiny = true;
        else if (arg == "--json" && i + 1 < argc)
            o.json = argv[++i];
        else if (arg.rfind("--json=", 0) == 0)
            o.json = arg.substr(7);
        else
            usage(argv[0]);
    }
    return o;
}

/** Minimum wall-clock of @p reps runs of @p fn (steady clock). */
template <typename Fn>
double
bestOf(int reps, Fn &&fn)
{
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        const double s = std::chrono::duration<double>(t1 - t0).count();
        if (r == 0 || s < best)
            best = s;
    }
    return best;
}

struct StageResult
{
    std::string name;
    double seconds = 0.0;
    double intervalsPerSec = 0.0;
    double mibPerSec = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace rrbench;
    const Options o = parseArgs(argc, argv);
    const std::uint32_t workers = sim::resolveJobs(o.jobs);

    // The largest suite kernel; --tiny shrinks it to CI-smoke size.
    const App app = o.tiny ? App{"lu", 2} : App{"lu", 24};
    const std::uint32_t cores = o.tiny ? 4 : 8;
    sim::RecorderConfig policy;
    policy.mode = sim::RecorderMode::Opt;
    // Small intervals are the design point that exposes replay
    // parallelism (fig15); they also make the decode side chunk-rich.
    policy.maxIntervalInstructions = 128;
    policy.recordDependencies = true;

    printTitle("Replay data-path throughput (" + app.name + " scale " +
               std::to_string(app.scale) + ", " + std::to_string(cores) +
               " cores, " + std::to_string(workers) + " workers)");

    Recorded rec = record(app, cores, {policy});
    std::vector<rnr::CoreLog> patched;
    for (auto &log : rec.result.logs.at(0))
        patched.push_back(rnr::patch(std::move(log)));

    // Persist a patched recording once; every stage starts from the
    // file.
    const auto persist = [&](const std::string &file,
                             const std::vector<rnr::CoreLog> &logs,
                             sim::CoherenceKind coherence) {
        rnr::RecordingMeta meta;
        meta.kernel = app.name;
        meta.cores = cores;
        meta.scale = app.scale;
        meta.mode = policy.mode;
        meta.intervalCap = policy.maxIntervalInstructions;
        meta.deps = true;
        meta.coherence = coherence;
        rnr::LogWriter writer(file, meta);
        for (sim::CoreId c = 0; c < logs.size(); ++c)
            for (const auto &iv : logs[c].intervals)
                writer.append(c, iv);
        rnr::RecordingSummary summary;
        summary.cores.resize(logs.size());
        for (std::size_t c = 0; c < logs.size(); ++c)
            summary.cores[c].intervals = logs[c].intervals.size();
        writer.finish(summary);
    };
    const char *tmpdir = std::getenv("TMPDIR");
    const std::string path =
        std::string(tmpdir && *tmpdir ? tmpdir : "/tmp") + "/rr_micro_" +
        std::to_string(static_cast<unsigned long>(::getpid())) + ".rrlog";
    persist(path, patched, sim::CoherenceKind::Snoopy);

    std::uint64_t fileBytes = 0;
    std::uint64_t totalIntervals = 0;
    for (const auto &log : patched)
        totalIntervals += log.intervals.size();

    const int reps = 3;
    std::vector<StageResult> stages;
    const auto addStage = [&](const char *name, double seconds) {
        StageResult s;
        s.name = name;
        s.seconds = seconds;
        s.intervalsPerSec =
            static_cast<double>(totalIntervals) / seconds;
        s.mibPerSec = static_cast<double>(fileBytes) /
                      (1024.0 * 1024.0) / seconds;
        stages.push_back(s);
    };

    // -- decode-only stages ------------------------------------------
    addStage("decode_sequential", bestOf(reps, [&] {
        rnr::LogReader reader(path);
        fileBytes = reader.fileBytes();
        reader.readAll();
    }));
    // Recompute rates for decode_sequential now that fileBytes is known.
    stages[0].mibPerSec = static_cast<double>(fileBytes) /
                          (1024.0 * 1024.0) / stages[0].seconds;

    // -- end-to-end replay stages (disk -> final memory) -------------
    std::uint64_t seqFingerprint = 0, seqInstructions = 0;
    addStage("replay_sequential", bestOf(reps, [&] {
        rnr::LogReader reader(path);
        rnr::Replayer rep(rec.workload.program, reader.readAll(),
                          rec.initial.clone());
        const rnr::ReplayResult res = rep.run();
        seqFingerprint = res.memory.fingerprint();
        seqInstructions = res.instructions;
    }));

    double replaySpan = 0.0, replaySerial = 0.0;
    addStage("replay_parallel", bestOf(reps, [&] {
        rnr::LogReader reader(path);
        rnr::Replayer rep(rec.workload.program, reader.readAll(),
                          rec.initial.clone(), {workers, {}});
        const rnr::ReplayResult res = rep.run();
        RR_ASSERT(res.memory.fingerprint() == seqFingerprint &&
                      res.instructions == seqInstructions,
                  "parallel replay diverged from sequential replay");
        // One worker walks the recorded order and measures no
        // schedule: its span and serial work are its wall clock.
        const bool fanned = res.workers > 1;
        const double span = fanned ? res.measuredSpanSeconds : res.wallSeconds;
        if (replaySpan == 0.0 || span < replaySpan) {
            replaySpan = span;
            replaySerial = fanned ? res.measuredSerialSeconds : span;
        }
    }));

    std::remove(path.c_str());

    // -- directory-backend row ---------------------------------------
    // The same kernel recorded on the home-directory backend (Section
    // 4.3), replayed by the shipping parallel path. Directory logs have
    // a different shape (conservative Snoop Table bumps, sparse snoop
    // stream), so this row keeps the data path's throughput visible on
    // both coherence backends. Not part of the 2x gate — its baseline
    // is a different recording.
    Recorded drec =
        record(app, cores, {policy}, sim::CoherenceKind::Directory);
    std::vector<rnr::CoreLog> dpatched;
    for (auto &log : drec.result.logs.at(0))
        dpatched.push_back(rnr::patch(std::move(log)));
    const std::string dpath = path + ".dir";
    persist(dpath, dpatched, sim::CoherenceKind::Directory);
    std::uint64_t dirBytes = 0, dirIntervals = 0;
    for (const auto &log : dpatched)
        dirIntervals += log.intervals.size();
    const double dirSeconds = bestOf(reps, [&] {
        rnr::LogReader reader(dpath);
        dirBytes = reader.fileBytes();
        rnr::Replayer rep(drec.workload.program, reader.readAll(),
                          drec.initial.clone(), {workers, {}});
        const rnr::ReplayResult res = rep.run();
        RR_ASSERT(res.memory.fingerprint() ==
                          drec.result.memoryFingerprint &&
                      res.instructions == drec.result.totalInstructions,
                  "directory replay diverged from its recording");
    });
    {
        StageResult s;
        s.name = "replay_parallel_directory";
        s.seconds = dirSeconds;
        s.intervalsPerSec =
            static_cast<double>(dirIntervals) / dirSeconds;
        s.mibPerSec = static_cast<double>(dirBytes) /
                      (1024.0 * 1024.0) / dirSeconds;
        stages.push_back(s);
    }
    std::remove(dpath.c_str());

    // -- report -------------------------------------------------------
    std::printf("log: %llu intervals, %.2f MiB on disk\n",
                static_cast<unsigned long long>(totalIntervals),
                static_cast<double>(fileBytes) / (1024.0 * 1024.0));
    printColumns({"stage", "seconds", "Kintv/s", "MiB/s"});
    for (const StageResult &s : stages) {
        printCell(s.name);
        printCell(s.seconds, 4);
        printCell(s.intervalsPerSec / 1e3, 1);
        printCell(s.mibPerSec, 2);
        endRow();
    }

    // Host-core-count independent end-to-end comparison (fig15
    // methodology, see the file header): single-threaded baseline wall
    // vs the measured decode plus what the engine's schedule supports
    // on `workers` lanes.
    const auto stage = [&](const char *name) -> const StageResult & {
        return *std::find_if(stages.begin(), stages.end(),
                             [&](const StageResult &s) {
                                 return s.name == name;
                             });
    };
    const double baselineSeconds = stage("replay_sequential").seconds;
    const double decodeSeconds = stage("decode_sequential").seconds;
    const double newPathSeconds = decodeSeconds + replaySpan;
    const double speedup = baselineSeconds / newPathSeconds;
    const double wallSpeedup =
        baselineSeconds / stage("replay_parallel").seconds;
    std::printf(
        "end-to-end disk-replay speedup: %.2fx on %u workers\n"
        "  decode + sequential replay:  %8.2f ms wall\n"
        "  decode + engine span:        %8.2f ms "
        "(%.2f + %.2f; the span schedule-measured,\n"
        "    host-core independent — raw wall gives %.2fx on this "
        "host)\n",
        speedup, workers, baselineSeconds * 1e3, newPathSeconds * 1e3,
        decodeSeconds * 1e3, replaySpan * 1e3, wallSpeedup);

    std::ofstream os(o.json);
    if (os) {
        os << "{\n"
           << "  \"bench\": \"replay_throughput\",\n"
           << "  \"kernel\": \"" << app.name << "\",\n"
           << "  \"scale\": " << app.scale << ",\n"
           << "  \"cores\": " << cores << ",\n"
           << "  \"workers\": " << workers << ",\n"
           << "  \"file_bytes\": " << fileBytes << ",\n"
           << "  \"intervals\": " << totalIntervals << ",\n"
           << "  \"end_to_end_speedup\": " << speedup << ",\n"
           << "  \"end_to_end_wall_speedup\": " << wallSpeedup << ",\n"
           << "  \"baseline_seconds\": " << baselineSeconds << ",\n"
           << "  \"decode_seconds\": " << decodeSeconds << ",\n"
           << "  \"replay_span_seconds\": " << replaySpan << ",\n"
           << "  \"replay_serial_seconds\": " << replaySerial << ",\n"
           << "  \"stages\": {\n";
        for (std::size_t i = 0; i < stages.size(); ++i) {
            const StageResult &s = stages[i];
            os << "    \"" << s.name << "\": {"
               << "\"seconds\": " << s.seconds << ", "
               << "\"intervals_per_sec\": " << s.intervalsPerSec << ", "
               << "\"mib_per_sec\": " << s.mibPerSec << "}"
               << (i + 1 < stages.size() ? "," : "") << "\n";
        }
        os << "  }\n}\n";
        std::printf("[json] saved %s\n", o.json.c_str());
    } else {
        std::fprintf(stderr, "[json] cannot open %s\n", o.json.c_str());
    }

    if (!o.tiny && speedup < 2.0) {
        std::printf("FAIL: end-to-end speedup %.2fx < 2.0x\n", speedup);
        return 1;
    }
    return 0;
}
