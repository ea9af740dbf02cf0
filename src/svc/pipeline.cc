#include "svc/pipeline.hh"

#include <algorithm>

#include "rnr/parallel_schedule.hh"
#include "rnr/patcher.hh"
#include "workloads/kernels.hh"

namespace rr::svc
{

namespace
{

/** Why the simulator cannot build this workload; empty when it can. */
std::string
workloadError(const std::string &kernel, std::uint32_t cores,
              sim::CoherenceKind coherence)
{
    const auto &names = workloads::kernelNames();
    if (std::find(names.begin(), names.end(), kernel) == names.end())
        return "unknown kernel '" + kernel + "'";
    if (cores == 0 || cores > kMaxCores)
        return "cores must be in [1," + std::to_string(kMaxCores) +
               "], got " + std::to_string(cores);
    if (coherence == sim::CoherenceKind::Directory && cores > 64)
        return "directory coherence supports at most 64 cores, got " +
               std::to_string(cores);
    return {};
}

/** The memory image a run of @p prog starts from. */
mem::BackingStore
initialImage(const isa::Program &prog)
{
    mem::BackingStore image;
    for (const auto &[addr, value] : prog.initialData)
        image.write64(addr, value);
    return image;
}

/**
 * Open @p p.file, refuse what must not be replayed, and decode its
 * logs into @p logs and its facts into @p out.
 * @return whether @p out.summary is sound to verify against.
 */
bool
readRecording(const JobParams &p, ReplayOutcome &out,
              std::vector<rnr::CoreLog> &logs)
{
    rnr::LogReader reader(p.file);
    out.meta = reader.meta();
    out.fileVersion = reader.version();
    out.fileFingerprint = reader.fingerprint();
    out.filePartial = reader.partial();

    // The file's protocol tag decides the replay machine; an explicit
    // request for the other backend is a wrong-machine ask, refused.
    if (p.coherenceSet && p.coherence != out.meta.coherence)
        throw JobRefused(1,
                         p.file + " was recorded under " +
                             sim::toString(out.meta.coherence) +
                             " coherence; refusing to replay it on a " +
                             sim::toString(p.coherence) + " machine",
                         "coherence-mismatch");

    if (p.allowPartial) {
        rnr::RecoveryResult rec = reader.recoverPrefix();
        logs = std::move(rec.logs);
        if (rec.cleanEnd && rec.hasSummary && rec.issues.empty() &&
            !reader.partial() &&
            rec.summary.cores.size() == out.meta.cores) {
            out.summary = rec.summary;
            return true;
        }
        // No sound Summary: replay the longest consistent prefix.
        Salvage &s = out.salvage;
        s.intervals = rec.salvagedIntervals;
        s.chunks = rec.salvagedChunks;
        s.droppedChunks = rec.droppedChunks;
        s.cut = rnr::consistentCut(logs, rec.coreTruncated);
        for (const auto &log : logs)
            s.kept += log.intervals.size();
        return false;
    }
    if (reader.partial())
        throw JobRefused(1,
                         p.file +
                             " is flagged as a partial recording; replay "
                             "it with allowPartial",
                         "partial-refused");
    logs = reader.readAll();
    out.summary = reader.summary();
    if (out.summary.cores.size() != out.meta.cores)
        throw JobRefused(1, "summary core count disagrees with header");
    return true;
}

} // namespace

void
checkRecordable(const JobParams &p)
{
    const std::string why = workloadError(p.kernel, p.cores, p.coherence);
    if (!why.empty())
        throw JobRefused(2, why);
}

rnr::RecordingMeta
recordingMeta(const JobParams &p)
{
    const workloads::WorkloadParams wp; // source of the seed defaults
    const sim::MachineConfig cfg;
    rnr::RecordingMeta meta;
    meta.kernel = p.kernel;
    meta.cores = p.cores;
    meta.scale = p.scale;
    meta.intensity = wp.intensity;
    meta.workloadSeed = wp.seed;
    meta.machineSeed = cfg.seed;
    meta.mode = p.mode;
    meta.intervalCap = p.intervalCap;
    meta.deps = p.deps;
    meta.coherence = p.coherence;
    return meta;
}

rnr::RecordingSummary
recordingSummary(const machine::RecordingResult &rec)
{
    rnr::RecordingSummary s;
    s.totalInstructions = rec.totalInstructions;
    s.cycles = rec.cycles;
    s.memoryFingerprint = rec.memoryFingerprint;
    for (std::size_t c = 0; c < rec.cores.size(); ++c) {
        rnr::CoreReplaySummary core;
        core.intervals = rec.logs[0][c].intervals.size();
        core.retiredInstructions = rec.cores[c].retiredInstructions;
        core.retiredLoads = rec.cores[c].retiredLoads;
        core.loadValueHash = rec.cores[c].loadValueHash;
        s.cores.push_back(core);
    }
    return s;
}

Recording
record(const JobParams &p, const CancelToken &token, rnr::LogWriter *writer)
{
    checkRecordable(p);
    workloads::WorkloadParams wp;
    wp.numThreads = p.cores;
    wp.scale = p.scale;
    Recording run;
    run.workload = workloads::buildKernel(p.kernel, wp);

    sim::MachineConfig cfg;
    cfg.numCores = p.cores;
    cfg.coherence = p.coherence;
    std::vector<sim::RecorderConfig> policies(1);
    policies[0].mode = p.mode;
    policies[0].maxIntervalInstructions = p.intervalCap;
    policies[0].recordDependencies = p.deps;

    run.machine = std::make_unique<machine::Machine>(
        cfg, run.workload.program, policies);
    run.machine->setIntervalSink(
        0, [writer, &token](sim::CoreId core,
                            const rnr::IntervalRecord &iv) {
            token.check();
            if (writer)
                writer->append(core, iv);
        });
    run.rec = run.machine->run();
    token.check();
    if (writer)
        writer->finish(recordingSummary(run.rec));
    for (const auto &log : run.rec.logs[0])
        run.stats.accumulate(log);
    return run;
}

ReplayOutcome
replayAndVerify(const JobParams &p, const CancelToken &token,
                rnr::ParallelSchedule *model)
{
    ReplayOutcome out;
    std::vector<rnr::CoreLog> logs;
    workloads::Workload from_file;
    const isa::Program *prog = nullptr;
    bool verify = true;
    if (p.file.empty()) {
        Recording &run = out.recording.emplace(record(p, token));
        out.meta = recordingMeta(p);
        out.summary = recordingSummary(run.rec);
        logs = std::move(run.rec.logs[0]);
        prog = &run.workload.program;
    } else {
        verify = readRecording(p, out, logs);
        token.check();
        const std::string unsound = rnr::replayInvariantViolation(
            logs, verify ? &out.summary.cores : nullptr);
        if (!unsound.empty())
            throw JobRefused(1, p.file + " cannot be replayed: " + unsound);
        const rnr::RecordingMeta &meta = out.meta;
        const std::string why =
            workloadError(meta.kernel, meta.cores, meta.coherence);
        if (!why.empty())
            throw JobRefused(1, p.file + " names a workload this "
                                         "simulator cannot build: " +
                                    why);
        workloads::WorkloadParams wp;
        wp.numThreads = meta.cores;
        wp.scale = meta.scale;
        wp.intensity = meta.intensity;
        wp.seed = meta.workloadSeed;
        from_file = workloads::buildKernel(meta.kernel, wp);
        prog = &from_file.program;
    }

    for (auto &log : logs)
        log = rnr::patch(std::move(log));

    out.parallel = out.meta.deps;
    if (out.parallel && model)
        *model = rnr::buildParallelSchedule(logs);
    try {
        rnr::Replayer rep(*prog, std::move(logs), initialImage(*prog),
                          {p.jobs, [&token] { return token.cancelled(); }});
        out.result = rep.run();
    } catch (const rnr::ReplayAborted &) {
        throw JobCancelled();
    }
    token.check();

    if (!verify) {
        out.verdict = Verdict::PartialOk;
        return out;
    }
    const rnr::ReplayResult &res = out.result;
    for (sim::CoreId c = 0; c < out.meta.cores; ++c) {
        const rnr::CoreReplaySummary &cs = out.summary.cores[c];
        if (res.loadHashes[c] != cs.loadValueHash ||
            res.loadCounts[c] != cs.retiredLoads ||
            res.contexts[c].instructions != cs.retiredInstructions)
            out.mismatchedCores.push_back(c);
    }
    const bool ok =
        out.mismatchedCores.empty() &&
        res.memory.fingerprint() == out.summary.memoryFingerprint &&
        res.instructions == out.summary.totalInstructions;
    out.verdict = ok ? Verdict::Ok : Verdict::Mismatch;
    return out;
}

} // namespace rr::svc
