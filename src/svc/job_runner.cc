#include "svc/job_runner.hh"

#include <cstdio>
#include <memory>

#include "rnr/divergence.hh"
#include "rnr/logstore.hh"
#include "rnr/parallel_replayer.hh"

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

JobOutcome
runRecord(const JobParams &p, const CancelToken &token)
{
    JobOutcome out;
    // Refuse before the writer creates its staging file.
    checkRecordable(p);
    std::unique_ptr<rnr::LogWriter> writer;
    if (!p.outFile.empty())
        writer = std::make_unique<rnr::LogWriter>(p.outFile,
                                                  recordingMeta(p));
    const Recording run = record(p, token, writer.get());

    std::string &r = out.resultJson;
    r = "{\"kind\":\"record\",\"kernel\":" + jsonQuote(p.kernel) +
        ",\"cores\":" + std::to_string(p.cores) +
        ",\"scale\":" + std::to_string(p.scale) +
        ",\"instructions\":" + std::to_string(run.rec.totalInstructions) +
        ",\"cycles\":" + std::to_string(run.rec.cycles) +
        ",\"intervals\":" + std::to_string(run.stats.intervals) +
        ",\"logBits\":" + std::to_string(run.stats.totalBits) +
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

JobOutcome
runReplay(const JobParams &p, const CancelToken &token)
{
    JobOutcome out;
    const ReplayOutcome rep = replayAndVerify(p, token);
    const rnr::ReplayResult &res = rep.result;

    std::string &r = out.resultJson;
    r = "{\"kind\":\"replay\"";
    if (!p.file.empty())
        r += ",\"file\":" + jsonQuote(p.file);
    r += ",\"kernel\":" + jsonQuote(rep.meta.kernel) +
         ",\"cores\":" + std::to_string(rep.meta.cores) +
         ",\"engine\":\"" + (rep.parallel ? "parallel" : "sequential") +
         "\",\"instructions\":" + std::to_string(res.instructions) +
         ",\"memoryFingerprint\":\"" + hex64(res.memory.fingerprint()) +
         "\"";
    if (rep.verdict == Verdict::PartialOk) {
        r += ",\"determinism\":\"partial-ok\"}";
        out.ok = true;
        return out;
    }
    r += ",\"perCore\":[";
    for (std::uint32_t c = 0; c < rep.meta.cores; ++c) {
        if (c)
            r += ",";
        r += "{\"loadHash\":\"" + hex64(res.loadHashes[c]) +
             "\",\"loads\":" + std::to_string(res.loadCounts[c]) +
             ",\"instructions\":" +
             std::to_string(res.contexts[c].instructions) + "}";
    }
    out.ok = rep.verdict == Verdict::Ok;
    r += "],\"determinism\":\"";
    r += out.ok ? "ok" : "mismatch";
    r += "\"}";
    if (!out.ok) {
        out.errorClass = 1;
        out.message = "replayed state does not match the recording";
    }
    return out;
}

JobOutcome
runVerify(const JobParams &p, const CancelToken &token)
{
    JobOutcome out;
    rnr::LogReader reader(p.file);
    token.check();
    const std::vector<rnr::VerifyIssue> issues = reader.verify();
    token.check();
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
    rnr::LogReader reader(p.file);
    rnr::LogStats sum;
    std::uint64_t walked = 0;
    reader.walkIntervals([&](sim::CoreId,
                             const rnr::IntervalRecord &iv,
                             const rnr::LogReader::ChunkView &) {
        sum.add(iv);
        if ((++walked & 0x3FF) == 0 && token.cancelled())
            return false;
        return true;
    });
    token.check();
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
        token.check();
        switch (params.kind) {
          case JobKind::Record:
            return runRecord(params, token);
          case JobKind::Replay:
            return runReplay(params, token);
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
    } catch (const JobRefused &e) {
        JobOutcome out;
        out.errorClass = e.errorClass;
        out.message = e.what();
        if (e.determinism)
            out.resultJson = "{\"kind\":\"replay\",\"file\":" +
                             jsonQuote(params.file) +
                             ",\"determinism\":\"" + e.determinism +
                             "\"}";
        return out;
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
