/**
 * @file
 * Replay data-path throughput microbenchmark: records the largest
 * suite kernel (lu, scale 24, 8 cores) with dependency edges, persists
 * the patched logs to a `.rrlog`, then times every stage of the
 * disk-to-memory replay pipeline:
 *
 *  - decode_sequential   chunks read and decoded on the calling thread
 *                        (readAll = readAllParallel(1));
 *  - decode_parallel     the same chunk walk and interval decoder,
 *                        chunks decoded on `workers` TaskPool threads;
 *  - replay_sequential   end-to-end: sequential decode + sequential
 *                        Replayer (the pre-optimization disk-replay
 *                        path, and the baseline of the 2x gate);
 *  - replay_parallel     end-to-end: parallel decode + the segment-
 *                        scheduled parallel engine (the shipping path);
 *  - replay_parallel_directory  the shipping path on a log recorded
 *                        under the home-directory coherence backend
 *                        (Section 4.3) — different log shape, same
 *                        data path; informational, outside the gate.
 *
 * Every stage reports wall-clock intervals/sec and MiB/s (of on-disk
 * log bytes); results land in BENCH_replay_throughput.json for
 * tools/perf_compare.py. Both decoded log sets are checked
 * bit-identical and all three replays must agree on memory
 * fingerprint and instruction count.
 *
 * The gated end-to-end speedup is host-core-count independent, per
 * the repo's fig15 methodology (docs/REPLAY.md, "Measured speedup"):
 * raw wall-clock only shows parallel gains when the host really has
 * >= workers free cores, so the new path's time is measured as what
 * its schedules support on `workers` lanes — the per-chunk decode
 * durations list-scheduled on the worker count, plus the parallel
 * engine's measured schedule span — against the honestly
 * single-threaded wall of sequential decode + sequential replay.
 * Unless --tiny, the run fails below 2x.
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
#include "rnr/parallel_replayer.hh"
#include "rnr/patcher.hh"
#include "rnr/replayer.hh"
#include "sim/jobs.hh"
#include "sim/logging.hh"

namespace
{

using namespace rr;

struct Options
{
    std::uint32_t jobs = 0; ///< engine/decode workers; 0 = all cores
    bool tiny = false;      ///< CI smoke: small kernel, no 2x gate
    std::string json = "BENCH_replay_throughput.json";
};

[[noreturn]] void
usage(const char *prog)
{
    std::fprintf(stderr,
                 "usage: %s [--jobs N] [--tiny] [--json FILE]\n"
                 "  --jobs N     decode/replay workers "
                 "(default: all host cores; env RR_JOBS)\n"
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
    if (const char *env = std::getenv("RR_JOBS"))
        o.jobs = static_cast<std::uint32_t>(std::strtoul(env, nullptr, 10));
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if ((arg == "--jobs" || arg == "-j") && i + 1 < argc)
            o.jobs = static_cast<std::uint32_t>(
                std::strtoul(argv[++i], nullptr, 10));
        else if (arg.rfind("--jobs=", 0) == 0)
            o.jobs = static_cast<std::uint32_t>(
                std::strtoul(arg.c_str() + 7, nullptr, 10));
        else if (arg == "--tiny")
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

/**
 * Time every chunk's decode with a serial walk, then list-schedule the
 * durations on @p lanes workers (greedy least-loaded, the same
 * schedule model the parallel engine reports): the decode wall that
 * readAllParallel supports on a host with that many free cores.
 * Chunks carry no dependencies, so unlike the engine's span there is
 * no DAG to respect — only lane capacity.
 */
double
decodeSpanSeconds(const std::string &path, std::uint32_t lanes)
{
    rr::rnr::LogReader reader(path);
    std::vector<double> chunk_secs;
    std::uint64_t cur_seq = ~std::uint64_t{0};
    auto t0 = std::chrono::steady_clock::now();
    const auto close = [&] {
        const auto now = std::chrono::steady_clock::now();
        chunk_secs.push_back(
            std::chrono::duration<double>(now - t0).count());
        t0 = now;
    };
    reader.walkIntervals([&](rr::sim::CoreId, const rr::rnr::IntervalRecord &,
                             const rr::rnr::LogReader::ChunkView &view) {
        if (view.seq != cur_seq) {
            if (cur_seq != ~std::uint64_t{0})
                close();
            else
                t0 = std::chrono::steady_clock::now();
            cur_seq = view.seq;
        }
        return true;
    });
    if (cur_seq != ~std::uint64_t{0})
        close();

    std::vector<double> lane(lanes == 0 ? 1 : lanes, 0.0);
    for (double d : chunk_secs)
        *std::min_element(lane.begin(), lane.end()) += d;
    return *std::max_element(lane.begin(), lane.end());
}

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

    // Persist once; every stage starts from this file.
    const char *tmpdir = std::getenv("TMPDIR");
    const std::string path =
        std::string(tmpdir && *tmpdir ? tmpdir : "/tmp") + "/rr_micro_" +
        std::to_string(static_cast<unsigned long>(::getpid())) + ".rrlog";
    {
        rnr::RecordingMeta meta;
        meta.kernel = app.name;
        meta.cores = cores;
        meta.scale = app.scale;
        meta.mode = policy.mode;
        meta.intervalCap = policy.maxIntervalInstructions;
        meta.deps = true;
        rnr::LogWriter writer(path, meta);
        for (sim::CoreId c = 0; c < patched.size(); ++c)
            for (const auto &iv : patched[c].intervals)
                writer.append(c, iv);
        rnr::RecordingSummary summary;
        summary.cores.resize(patched.size());
        for (std::size_t c = 0; c < patched.size(); ++c)
            summary.cores[c].intervals = patched[c].intervals.size();
        writer.finish(summary);
    }

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
    std::vector<rnr::CoreLog> decodedSequential;
    addStage("decode_sequential", bestOf(reps, [&] {
        rnr::LogReader reader(path);
        fileBytes = reader.fileBytes();
        decodedSequential = reader.readAll();
    }));

    std::vector<rnr::CoreLog> decodedParallel;
    addStage("decode_parallel", bestOf(reps, [&] {
        rnr::LogReader reader(path);
        decodedParallel = reader.readAllParallel(workers);
    }));
    // Recompute rates for decode_sequential now that fileBytes is known.
    stages[0].mibPerSec = static_cast<double>(fileBytes) /
                          (1024.0 * 1024.0) / stages[0].seconds;

    RR_ASSERT(decodedSequential.size() == decodedParallel.size(),
              "decodes disagree on the core count");
    for (std::size_t c = 0; c < decodedSequential.size(); ++c)
        RR_ASSERT(decodedSequential[c].intervals ==
                      decodedParallel[c].intervals,
                  "sequential and parallel decode disagree");

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
        rnr::ParallelReplayOptions popts;
        popts.workers = workers;
        rnr::ParallelReplayer rep(rec.workload.program,
                                  reader.readAllParallel(workers),
                                  rec.initial.clone(), popts);
        const rnr::ReplayResult res = rep.run();
        RR_ASSERT(res.memory.fingerprint() == seqFingerprint &&
                      res.instructions == seqInstructions,
                  "parallel replay diverged from sequential replay");
        if (replaySpan == 0.0 || res.measuredSpanSeconds < replaySpan) {
            replaySpan = res.measuredSpanSeconds;
            replaySerial = res.measuredSerialSeconds;
        }
    }));

    // The decode wall the new path supports on `workers` lanes (see
    // decodeSpanSeconds); measured before the file goes away.
    const double decodeSpan = decodeSpanSeconds(path, workers);

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
    {
        rnr::RecordingMeta meta;
        meta.kernel = app.name;
        meta.cores = cores;
        meta.scale = app.scale;
        meta.mode = policy.mode;
        meta.intervalCap = policy.maxIntervalInstructions;
        meta.deps = true;
        meta.coherence = sim::CoherenceKind::Directory;
        rnr::LogWriter writer(dpath, meta);
        for (sim::CoreId c = 0; c < dpatched.size(); ++c)
            for (const auto &iv : dpatched[c].intervals)
                writer.append(c, iv);
        rnr::RecordingSummary summary;
        summary.cores.resize(dpatched.size());
        for (std::size_t c = 0; c < dpatched.size(); ++c)
            summary.cores[c].intervals = dpatched[c].intervals.size();
        writer.finish(summary);
    }
    std::uint64_t dirBytes = 0, dirIntervals = 0;
    for (const auto &log : dpatched)
        dirIntervals += log.intervals.size();
    const double dirSeconds = bestOf(reps, [&] {
        rnr::LogReader reader(dpath);
        dirBytes = reader.fileBytes();
        rnr::ParallelReplayOptions popts;
        popts.workers = workers;
        rnr::ParallelReplayer rep(drec.workload.program,
                                  reader.readAllParallel(workers),
                                  drec.initial.clone(), popts);
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
    // vs what the new path's schedules support on `workers` lanes.
    const auto stage = [&](const char *name) -> const StageResult & {
        return *std::find_if(stages.begin(), stages.end(),
                             [&](const StageResult &s) {
                                 return s.name == name;
                             });
    };
    const double baselineSeconds = stage("replay_sequential").seconds;
    const double newPathSeconds = decodeSpan + replaySpan;
    const double speedup = baselineSeconds / newPathSeconds;
    const double wallSpeedup =
        baselineSeconds / stage("replay_parallel").seconds;
    std::printf(
        "end-to-end disk-replay speedup: %.2fx on %u workers\n"
        "  sequential decode + replay:          %8.2f ms wall\n"
        "  parallel decode span + engine span:  %8.2f ms "
        "(%.2f + %.2f; schedule-measured,\n"
        "    host-core independent — raw wall gives %.2fx on this "
        "host)\n",
        speedup, workers, baselineSeconds * 1e3, newPathSeconds * 1e3,
        decodeSpan * 1e3, replaySpan * 1e3, wallSpeedup);

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
           << "  \"decode_span_seconds\": " << decodeSpan << ",\n"
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
