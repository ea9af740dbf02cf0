#include "svc/job_runner.hh"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "machine/machine.hh"
#include "rnr/divergence.hh"
#include "rnr/logstore.hh"
#include "rnr/parallel_replayer.hh"
#include "rnr/patcher.hh"
#include "rnr/replayer.hh"
#include "workloads/kernels.hh"

namespace rr::svc
{

namespace
{

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
checkCancelled(const CancelToken &token)
{
    if (token.cancelled())
        throw JobCancelled();
}

bool
knownKernel(const std::string &name)
{
    const auto &names = workloads::kernelNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

/** The .rrlog metadata for a record job (mirrors rrsim's metaFor). */
rnr::RecordingMeta
metaFor(const JobParams &p)
{
    const workloads::WorkloadParams wp;
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
summaryOf(const machine::RecordingResult &rec)
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

struct RecordRun
{
    workloads::Workload workload;
    std::unique_ptr<machine::Machine> machine;
    mem::BackingStore initial;
    machine::RecordingResult rec;
};

/**
 * Record @p p's kernel, streaming into @p writer when set. The
 * interval sink doubles as the record-side cancellation poll: every
 * closed interval checks the token.
 */
RecordRun
recordKernel(const JobParams &p, const CancelToken &token,
             rnr::LogWriter *writer)
{
    workloads::WorkloadParams wp;
    wp.numThreads = p.cores;
    wp.scale = p.scale;
    RecordRun run;
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
        0,
        [writer, &token](sim::CoreId core,
                         const rnr::IntervalRecord &iv) {
            checkCancelled(token);
            if (writer)
                writer->append(core, iv);
        });
    run.initial = run.machine->initialMemory();
    run.rec = run.machine->run();
    checkCancelled(token);
    return run;
}

JobOutcome
runRecord(const JobParams &p, const CancelToken &token)
{
    JobOutcome out;
    std::unique_ptr<rnr::LogWriter> writer;
    if (!p.outFile.empty())
        writer =
            std::make_unique<rnr::LogWriter>(p.outFile, metaFor(p));
    RecordRun run = recordKernel(p, token, writer.get());
    if (writer)
        writer->finish(summaryOf(run.rec));

    rnr::LogStats stats;
    for (const auto &log : run.rec.logs[0])
        stats.accumulate(log);

    std::string &r = out.resultJson;
    r = "{\"kind\":\"record\",\"kernel\":" + jsonQuote(p.kernel) +
        ",\"cores\":" + std::to_string(p.cores) +
        ",\"scale\":" + std::to_string(p.scale) +
        ",\"instructions\":" + std::to_string(run.rec.totalInstructions) +
        ",\"cycles\":" + std::to_string(run.rec.cycles) +
        ",\"intervals\":" + std::to_string(stats.intervals) +
        ",\"logBits\":" + std::to_string(stats.totalBits) +
        ",\"memoryFingerprint\":\"" + hex64(run.rec.memoryFingerprint) +
        "\",\"coherence\":\"" + sim::toString(p.coherence) + "\"";
    if (writer)
        r += ",\"out\":" + jsonQuote(p.outFile) +
             ",\"bytesWritten\":" +
             std::to_string(writer->bytesWritten());
    r += "}";
    out.ok = true;
    return out;
}

/** Append the per-core replay verification block to @p r. */
void
appendCoreChecks(std::string &r, std::uint32_t cores,
                 const rnr::ReplayResult &res)
{
    r += ",\"perCore\":[";
    for (std::uint32_t c = 0; c < cores; ++c) {
        if (c)
            r += ",";
        r += "{\"loadHash\":\"" + hex64(res.loadHashes[c]) +
             "\",\"loads\":" + std::to_string(res.loadCounts[c]) +
             ",\"instructions\":" +
             std::to_string(res.contexts[c].instructions) + "}";
    }
    r += "]";
}

/**
 * Replay @p patched sequentially. The engine is single-threaded, so a
 * load hook may poll the token and throw directly.
 */
rnr::ReplayResult
replaySequential(const isa::Program &prog,
                 std::vector<rnr::CoreLog> patched,
                 mem::BackingStore initial, const CancelToken &token)
{
    rnr::Replayer rep(prog, std::move(patched), std::move(initial));
    std::uint64_t polls = 0;
    rep.setLoadHook([&](sim::CoreId, std::uint64_t) {
        if ((++polls & 0xFFF) == 0)
            checkCancelled(token);
    });
    return rep.run();
}

JobOutcome
runReplayFile(const JobParams &p, const CancelToken &token)
{
    JobOutcome out;
    rnr::LogReader reader(p.file, p.ingest);
    const rnr::RecordingMeta &meta = reader.meta();

    // The file's protocol tag decides the replay machine; an explicit
    // request for the other backend is a wrong-machine ask, refused.
    if (p.coherenceSet && p.coherence != meta.coherence) {
        out.errorClass = 1;
        out.message = p.file + " was recorded under " +
                      sim::toString(meta.coherence) +
                      " coherence; refusing to replay it on a " +
                      sim::toString(p.coherence) + " machine";
        out.resultJson =
            "{\"kind\":\"replay\",\"file\":" + jsonQuote(p.file) +
            ",\"determinism\":\"coherence-mismatch\"}";
        return out;
    }

    bool verify_full = true;
    rnr::RecordingSummary summary;
    std::vector<rnr::CoreLog> logs;
    if (p.allowPartial) {
        rnr::RecoveryResult rec = reader.recoverPrefix();
        const bool sound = rec.cleanEnd && rec.hasSummary &&
                           rec.issues.empty() && !reader.partial();
        logs = std::move(rec.logs);
        if (sound) {
            summary = rec.summary;
        } else {
            verify_full = false;
            rnr::consistentCut(logs, rec.coreTruncated);
        }
    } else {
        if (reader.partial()) {
            out.errorClass = 1;
            out.message = p.file +
                          " is flagged as a partial recording; replay "
                          "it with allowPartial";
            out.resultJson =
                "{\"kind\":\"replay\",\"file\":" + jsonQuote(p.file) +
                ",\"determinism\":\"partial-refused\"}";
            return out;
        }
        // Decode first: its framing pass caches the Summary chunk, so
        // summary() then costs nothing. Asked first, it would walk and
        // decode every data chunk just to reach the Summary.
        logs = reader.readAllParallel(p.jobs);
        summary = reader.summary();
    }
    checkCancelled(token);

    workloads::WorkloadParams wp;
    wp.numThreads = meta.cores;
    wp.scale = meta.scale;
    wp.intensity = meta.intensity;
    wp.seed = meta.workloadSeed;
    const auto w = workloads::buildKernel(meta.kernel, wp);

    sim::MachineConfig cfg;
    cfg.numCores = meta.cores;
    cfg.seed = meta.machineSeed;
    cfg.coherence = meta.coherence;
    std::vector<sim::RecorderConfig> policies(1);
    policies[0].mode = meta.mode;
    machine::Machine m(cfg, w.program, policies);

    for (auto &log : logs)
        log = rnr::patch(std::move(log));

    rnr::ReplayResult res;
    const bool engine = meta.deps;
    if (engine) {
        rnr::ParallelReplayOptions popts;
        popts.workers = p.jobs;
        popts.abortCheck = [&token] { return token.cancelled(); };
        rnr::ParallelReplayer rep(w.program, std::move(logs),
                                  m.initialMemory().clone(), popts);
        res = rep.run();
    } else {
        res = replaySequential(w.program, std::move(logs),
                               m.initialMemory().clone(), token);
    }
    checkCancelled(token);

    std::string &r = out.resultJson;
    r = "{\"kind\":\"replay\",\"file\":" + jsonQuote(p.file) +
        ",\"kernel\":" + jsonQuote(meta.kernel) +
        ",\"cores\":" + std::to_string(meta.cores) +
        ",\"engine\":\"" + (engine ? "parallel" : "sequential") +
        "\",\"instructions\":" + std::to_string(res.instructions) +
        ",\"memoryFingerprint\":\"" + hex64(res.memory.fingerprint()) +
        "\"";

    if (!verify_full) {
        r += ",\"determinism\":\"partial-ok\"}";
        out.ok = true;
        return out;
    }

    bool ok = res.memory.fingerprint() == summary.memoryFingerprint &&
              res.instructions == summary.totalInstructions;
    for (sim::CoreId c = 0; c < meta.cores; ++c) {
        const auto &cs = summary.cores[c];
        if (res.loadHashes[c] != cs.loadValueHash ||
            res.loadCounts[c] != cs.retiredLoads ||
            res.contexts[c].instructions != cs.retiredInstructions)
            ok = false;
    }
    appendCoreChecks(r, meta.cores, res);
    r += ",\"determinism\":\"";
    r += ok ? "ok" : "mismatch";
    r += "\"}";
    out.ok = ok;
    if (!ok) {
        out.errorClass = 1;
        out.message = "replayed state does not match the recording";
    }
    return out;
}

/** Kernel-based replay: record in memory, replay, verify — the
 *  `rrsim replay <kernel>` shape. */
JobOutcome
runReplayKernel(const JobParams &p, const CancelToken &token)
{
    JobOutcome out;
    RecordRun run = recordKernel(p, token, nullptr);
    std::vector<rnr::CoreLog> &logs = run.rec.logs[0];
    for (auto &log : logs)
        log = rnr::patch(std::move(log));
    const rnr::ReplayResult res =
        replaySequential(run.workload.program, std::move(logs),
                         std::move(run.initial), token);
    checkCancelled(token);

    bool ok = res.memory.fingerprint() == run.rec.memoryFingerprint &&
              res.instructions == run.rec.totalInstructions;
    for (sim::CoreId c = 0; c < p.cores && ok; ++c)
        ok = res.loadHashes[c] == run.rec.cores[c].loadValueHash;

    std::string &r = out.resultJson;
    r = "{\"kind\":\"replay\",\"kernel\":" + jsonQuote(p.kernel) +
        ",\"cores\":" + std::to_string(p.cores) +
        ",\"engine\":\"sequential\",\"instructions\":" +
        std::to_string(res.instructions) + ",\"memoryFingerprint\":\"" +
        hex64(res.memory.fingerprint()) + "\"";
    appendCoreChecks(r, p.cores, res);
    r += ",\"determinism\":\"";
    r += ok ? "ok" : "mismatch";
    r += "\"}";
    out.ok = ok;
    if (!ok) {
        out.errorClass = 1;
        out.message = "replayed state does not match the recording";
    }
    return out;
}

JobOutcome
runVerify(const JobParams &p, const CancelToken &token)
{
    JobOutcome out;
    rnr::LogReader reader(p.file, p.ingest);
    checkCancelled(token);
    const std::vector<rnr::VerifyIssue> issues = reader.verify();
    checkCancelled(token);
    out.resultJson =
        "{\"kind\":\"verify\",\"file\":" + jsonQuote(p.file) +
        ",\"fingerprint\":\"" + hex64(reader.fingerprint()) +
        "\",\"issues\":" + std::to_string(issues.size()) + "}";
    if (issues.empty()) {
        out.ok = true;
    } else {
        out.errorClass = 1;
        out.message = issues.front().message + " (+" +
                      std::to_string(issues.size() - 1) + " more)";
    }
    return out;
}

JobOutcome
runStats(const JobParams &p, const CancelToken &token)
{
    JobOutcome out;
    rnr::LogReader reader(p.file, p.ingest);
    rnr::LogStats sum;
    std::uint64_t walked = 0;
    reader.walkIntervals([&](sim::CoreId,
                             const rnr::IntervalRecord &iv,
                             const rnr::LogReader::ChunkView &) {
        rnr::CoreLog one;
        one.intervals.push_back(iv);
        sum.accumulate(one);
        if ((++walked & 0x3FF) == 0 && token.cancelled())
            return false;
        return true;
    });
    checkCancelled(token);
    out.resultJson =
        "{\"kind\":\"stats\",\"file\":" + jsonQuote(p.file) +
        ",\"cores\":" + std::to_string(reader.coreCount()) +
        ",\"intervals\":" + std::to_string(sum.intervals) +
        ",\"inorderInstructions\":" +
        std::to_string(sum.inorderInstructions) +
        ",\"reordered\":" + std::to_string(sum.reordered()) +
        ",\"modelBits\":" + std::to_string(sum.totalBits) +
        ",\"diskBytes\":" + std::to_string(reader.fileBytes()) + "}";
    out.ok = true;
    return out;
}

} // namespace

JobOutcome
runJob(const JobParams &params, const CancelToken &token)
{
    try {
        checkCancelled(token);
        switch (params.kind) {
          case JobKind::Record:
            if (!knownKernel(params.kernel)) {
                JobOutcome out;
                out.errorClass = 2;
                out.message = "unknown kernel '" + params.kernel + "'";
                return out;
            }
            return runRecord(params, token);
          case JobKind::Replay:
            if (!params.file.empty())
                return runReplayFile(params, token);
            if (!knownKernel(params.kernel)) {
                JobOutcome out;
                out.errorClass = 2;
                out.message = "unknown kernel '" + params.kernel + "'";
                return out;
            }
            return runReplayKernel(params, token);
          case JobKind::Verify:
            return runVerify(params, token);
          case JobKind::Stats:
            return runStats(params, token);
        }
        JobOutcome out;
        out.errorClass = 2;
        out.message = "unhandled job kind";
        return out;
    } catch (const rnr::ReplayAborted &) {
        throw JobCancelled();
    } catch (const JobCancelled &) {
        throw;
    } catch (const rnr::ReplayDivergence &d) {
        JobOutcome out;
        out.errorClass = 1;
        out.message = "replay diverged at core " +
                      std::to_string(d.report().core) + ", interval " +
                      std::to_string(d.report().intervalIndex);
        return out;
    } catch (const rnr::LogStoreError &e) {
        JobOutcome out;
        out.errorClass = e.kind() == rnr::LogErrorKind::Io ? 3 : 1;
        out.message = e.what();
        return out;
    } catch (const std::exception &e) {
        JobOutcome out;
        out.errorClass = 1;
        out.message = e.what();
        return out;
    }
}

} // namespace rr::svc
