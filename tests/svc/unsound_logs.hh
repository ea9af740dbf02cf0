/**
 * @file
 * Seven .rrlog files that replay must answer with a typed outcome,
 * never an engine assertion or a replay that does not end: six that
 * `rrlog verify` calls sound (re-encoded by LogWriter, so every CRC is
 * valid) but whose logs break an invariant replay relies on or
 * disagree with their Summary, which are refused; and one with a data
 * chunk spliced out which, replayed with allowPartial, replays the
 * consistent prefix before the hole. Shared by the pipeline verdict
 * table and the live daemon test, as is writeHugeCoreCountLog()'s
 * file, which the reader refuses when it opens it.
 */

#ifndef RR_TESTS_SVC_UNSOUND_LOGS_HH
#define RR_TESTS_SVC_UNSOUND_LOGS_HH

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "rnr/logstore.hh"
#include "svc/pipeline.hh"

namespace rr::testlogs
{

struct UnsoundLog
{
    const char *name;
    std::string path;
    /** Part of the refusal's message; null for the file replayed with
     *  allowPartial, which replays the prefix before its missing chunk. */
    const char *refusal;
    bool allowPartial = false;
};

/** Write @p logs as a recording of @p p with Summary @p summary to
 *  @p path, interleaving the cores' intervals the way a live recording
 *  does. */
inline void
writeLogs(const std::string &path, const svc::JobParams &p,
          const rnr::RecordingSummary &summary,
          const std::vector<rnr::CoreLog> &logs,
          std::size_t chunk_bytes = rnr::fmt::kChunkTargetBytes)
{
    rnr::WriterOptions opts;
    opts.chunkTargetBytes = chunk_bytes;
    rnr::LogWriter w(path, svc::recordingMeta(p), opts);
    for (std::size_t i = 0;; ++i) {
        bool any = false;
        for (sim::CoreId c = 0; c < logs.size(); ++c) {
            if (i < logs[c].intervals.size()) {
                w.append(c, logs[c].intervals[i]);
                any = true;
            }
        }
        if (!any)
            break;
    }
    w.finish(summary);
}

/**
 * Write the runaway recording to @p path: raytrace at scale 2 on 8
 * cores, interval cap 128, with core 0's first InorderBlock set to
 * 2^40 instructions. Replayed, core 0 runs on past its interval into a
 * spin the rest of the log would have released. With @p claim, the
 * Summary claims the block's instructions for core 0, so the file
 * passes the count check and only cancellation ends its replay;
 * without, it keeps the recorded Summary and is refused before replay.
 */
inline void
writeRunawayLog(const std::string &path, bool deps, bool claim)
{
    svc::JobParams p;
    p.kernel = "raytrace";
    p.scale = 2;
    p.intervalCap = 128;
    p.deps = deps;
    const svc::Recording run = svc::record(p, svc::CancelToken{});
    std::vector<rnr::CoreLog> logs = run.rec.logs[0];
    rnr::RecordingSummary summary = svc::recordingSummary(run.rec);
    for (rnr::IntervalRecord &iv : logs[0].intervals) {
        const auto block = std::find_if(
            iv.entries.begin(), iv.entries.end(), [](const rnr::LogEntry &e) {
                return e.kind == rnr::EntryKind::InorderBlock;
            });
        if (block == iv.entries.end())
            continue;
        const std::uint64_t more = (std::uint64_t{1} << 40) - block->blockSize;
        block->blockSize += more;
        if (claim) {
            summary.cores[0].retiredInstructions += more;
            summary.totalInstructions += more;
        }
        break;
    }
    writeLogs(path, p, summary, logs);
}

/** The first interval with a predecessor on another core, as
 *  (core, index, edge index). */
inline std::tuple<sim::CoreId, std::size_t, std::size_t>
firstCrossCoreEdge(const std::vector<rnr::CoreLog> &logs)
{
    for (sim::CoreId c = 0; c < logs.size(); ++c)
        for (std::size_t i = 0; i < logs[c].intervals.size(); ++i)
            for (std::size_t e = 0;
                 e < logs[c].intervals[i].predecessors.size(); ++e)
                if (logs[c].intervals[i].predecessors[e].core != c)
                    return {c, i, e};
    return {0, 0, 0};
}

/** Write the seven files under @p prefix; returns them in a fixed order. */
inline std::vector<UnsoundLog>
writeUnsoundLogs(const std::string &prefix)
{
    svc::JobParams p;
    p.kernel = "fft";
    p.cores = 2;
    const svc::Recording plain = svc::record(p, svc::CancelToken{});
    svc::JobParams pd = p;
    pd.deps = true;
    const svc::Recording deps = svc::record(pd, svc::CancelToken{});
    const auto &plain_logs = plain.rec.logs[0];
    const auto &deps_logs = deps.rec.logs[0];
    const rnr::RecordingSummary plain_sum = svc::recordingSummary(plain.rec);
    const rnr::RecordingSummary deps_sum = svc::recordingSummary(deps.rec);
    const auto [xc, xi, xe] = firstCrossCoreEdge(deps_logs);

    std::vector<UnsoundLog> out;
    const auto add = [&](const char *name, const char *refusal) {
        out.push_back({name, prefix + name + ".rrlog", refusal,
                       refusal == nullptr});
        return out.back().path;
    };

    auto logs = deps_logs;
    logs[xc].intervals[xi].predecessors[xe].core = p.cores;
    writeLogs(add("edge-to-missing-core", "which the log lacks"), pd, deps_sum,
              logs);

    logs = deps_logs;
    rnr::IntervalDep &past = logs[xc].intervals[xi].predecessors[xe];
    past.isn = logs[past.core].intervals.size();
    writeLogs(add("edge-past-core-end", "which the log lacks"), pd, deps_sum,
              logs);

    // The predecessor also waits for its successor: a cycle.
    logs = deps_logs;
    const rnr::IntervalDep pred = logs[xc].intervals[xi].predecessors[xe];
    logs[pred.core].intervals[pred.isn].predecessors.push_back(
        rnr::IntervalDep{xc, xi});
    writeLogs(add("edge-cycle", "which does not precede it"), pd, deps_sum,
              logs);

    logs = plain_logs;
    std::swap(logs[0].intervals[0].timestamp,
              logs[0].intervals[1].timestamp);
    writeLogs(add("swapped-timestamps", "timestamp does not follow"), p,
              plain_sum, logs);

    logs = plain_logs;
    logs[0].intervals[1].entries.push_back(
        rnr::LogEntry::reorderedStore(0x1000, 7, 2));
    writeLogs(add("store-offset-past-index",
                  "ReorderedStore offset 2 is outside [1, 1]"),
              p, plain_sum, logs);

    // A block far past what the program runs, under the recorded
    // Summary: refused by the count check instead of spinning.
    writeRunawayLog(add("runaway-block", "core 0's log replays"), false,
                    false);

    // Small chunks; splice out a data chunk mid-file.
    const std::string dropped = add("dropped-data-chunk", nullptr);
    writeLogs(dropped, pd, deps_sum, deps_logs, 16);
    std::vector<std::uint8_t> bytes;
    {
        std::ifstream in(dropped, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    std::vector<std::pair<std::uint64_t, std::uint64_t>> data_chunks;
    for (std::uint64_t off = rnr::fmt::kFileHeaderBytes;
         off < bytes.size();) {
        rnr::fmt::ChunkHeader h;
        rnr::fmt::ChunkHeader::decode(bytes.data() + off, h);
        const std::uint64_t end =
            off + rnr::fmt::kChunkHeaderBytes + h.payloadBytes();
        if (h.type == rnr::fmt::ChunkType::Data)
            data_chunks.emplace_back(off, end);
        off = end;
    }
    const auto [from, to] = data_chunks[data_chunks.size() / 2];
    bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(from),
                bytes.begin() + static_cast<std::ptrdiff_t>(to));
    std::ofstream(dropped, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char *>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    return out;
}

/**
 * Write a 105-byte file whose header and Meta chunk name 4,294,967,295
 * cores to @p path: the file header, a Meta chunk for fft at scale 1
 * and the End chunk, every CRC and the fingerprint valid. LogWriter
 * keeps a stream per core, so the bytes are built here, the Meta
 * payload encoded field by field as LogWriter encodes it.
 */
inline void
writeHugeCoreCountLog(const std::string &path)
{
    namespace fmt = rnr::fmt;
    svc::JobParams p;
    p.kernel = "fft";
    rnr::RecordingMeta meta = svc::recordingMeta(p);
    meta.cores = 0xffffffffu;

    rnr::BitWriter payload;
    fmt::writeVarint(payload, meta.kernel.size());
    for (const char c : meta.kernel)
        payload.write(static_cast<std::uint8_t>(c), 8);
    for (const std::uint64_t field :
         {std::uint64_t{meta.cores}, meta.scale, meta.intensity,
          meta.workloadSeed, meta.machineSeed,
          std::uint64_t{meta.mode == sim::RecorderMode::Opt},
          meta.intervalCap, std::uint64_t{meta.deps}})
        fmt::writeVarint(payload, field);

    std::vector<std::uint8_t> bytes(fmt::kMagic.begin(), fmt::kMagic.end());
    fmt::putU16(bytes, fmt::kFormatVersion);
    fmt::putU16(bytes, 0); // flags: a complete snoopy recording
    fmt::putU64(bytes, meta.fingerprint());
    fmt::putU32(bytes, meta.cores);
    fmt::putU32(bytes, fmt::crc32(bytes.data(), bytes.size()));
    const auto chunk = [&](fmt::ChunkType type, std::uint64_t seq,
                           const std::vector<std::uint8_t> &body,
                           std::uint64_t bits) {
        fmt::ChunkHeader h;
        h.type = type;
        h.seq = seq;
        h.payloadBits = bits;
        h.payloadCrc = fmt::crc32(body.data(), body.size());
        const auto header = h.encode();
        bytes.insert(bytes.end(), header.begin(), header.end());
        bytes.insert(bytes.end(), body.begin(), body.end());
    };
    chunk(fmt::ChunkType::Meta, 0, payload.bytes(), payload.bitCount());
    chunk(fmt::ChunkType::End, 1, {}, 0);
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char *>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
}

} // namespace rr::testlogs

#endif // RR_TESTS_SVC_UNSOUND_LOGS_HH
