/**
 * @file
 * Persistent log store tests: wire-format primitives (CRC32, zigzag,
 * varint, chunk header codec), LogWriter/LogReader round trips through
 * real files (empty intervals, empty cores, max offsets, dependency
 * edges, multi-chunk streams), and the full corruption matrix — bit
 * flips in payloads and headers, truncation, zeroed regions, version
 * and fingerprint mismatches. Every failure must surface as a
 * LogStoreError (or a VerifyIssue) naming the file offset and chunk,
 * never as a crash.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "rnr/logstore.hh"
#include "sim/faultinject.hh"
#include "sim/rng.hh"
#include "svc/job_runner.hh"

namespace
{

using namespace rr::rnr;
namespace fmt = rr::rnr::fmt;

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "rr_logstore_" + name + ".rrlog";
}

std::vector<std::uint8_t>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
spew(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** Recompute the file-header CRC after a test patched header fields. */
void
fixFileHeaderCrc(std::vector<std::uint8_t> &bytes)
{
    const std::uint32_t crc =
        fmt::crc32(bytes.data(), fmt::kFileHeaderBytes - 4);
    for (int i = 0; i < 4; ++i)
        bytes[fmt::kFileHeaderBytes - 4 + i] =
            static_cast<std::uint8_t>(crc >> (8 * i));
}

/** File offset of the first chunk of @p type; walks the chunk chain. */
std::uint64_t
findChunk(const std::vector<std::uint8_t> &bytes, fmt::ChunkType type,
          fmt::ChunkHeader *header_out = nullptr)
{
    std::uint64_t off = fmt::kFileHeaderBytes;
    while (off + fmt::kChunkHeaderBytes <= bytes.size()) {
        fmt::ChunkHeader h;
        EXPECT_TRUE(fmt::ChunkHeader::decode(bytes.data() + off, h))
            << "walk hit a bad header at " << off;
        if (h.type == type) {
            if (header_out)
                *header_out = h;
            return off;
        }
        off += fmt::kChunkHeaderBytes + h.payloadBytes();
    }
    ADD_FAILURE() << "no chunk of requested type";
    return 0;
}

RecordingMeta
makeMeta(std::uint32_t cores, bool deps = false)
{
    RecordingMeta meta;
    meta.kernel = "unit-test";
    meta.cores = cores;
    meta.scale = 2;
    meta.intensity = 7;
    meta.workloadSeed = 42;
    meta.machineSeed = 3;
    meta.mode = rr::sim::RecorderMode::Opt;
    meta.intervalCap = 0;
    meta.deps = deps;
    return meta;
}

/**
 * Deterministic per-core logs exercising the edge cases: a zero-entry
 * interval, a 16-bit max-offset reordered store, every entry kind, and
 * one core left completely empty.
 */
std::vector<CoreLog>
makeLogs(std::uint32_t cores, bool deps = false)
{
    std::vector<CoreLog> logs(cores);
    rr::sim::Rng rng(7);
    for (std::uint32_t c = 0; c + 1 < cores; ++c) { // last core empty
        for (int i = 0; i < 5; ++i) {
            IntervalRecord iv;
            if (i != 2) { // interval 2 stays empty (zero entries)
                iv.entries.push_back(
                    LogEntry::inorderBlock(1 + rng.below(1000)));
                iv.entries.push_back(LogEntry::reorderedLoad(rng.next()));
                iv.entries.push_back(LogEntry::reorderedStore(
                    rng.next() & 0xffffffffffffULL, rng.next(), 0xffff));
                iv.entries.push_back(LogEntry::reorderedAtomic(
                    0x1000 + 8 * i, rng.next(), rng.next(), 1));
            }
            iv.cisn = static_cast<rr::sim::Isn>(i);
            iv.timestamp = 100 * c + 10 * static_cast<unsigned>(i) +
                           rng.below(10);
            if (deps)
                iv.predecessors.push_back(IntervalDep{
                    static_cast<rr::sim::CoreId>((c + 1) % cores),
                    static_cast<rr::sim::Isn>(i)});
            logs[c].intervals.push_back(std::move(iv));
        }
    }
    return logs;
}

RecordingSummary
makeSummary(const std::vector<CoreLog> &logs)
{
    RecordingSummary s;
    s.totalInstructions = 12345;
    s.cycles = 999;
    s.memoryFingerprint = 0xfeedf00dULL;
    for (const auto &log : logs) {
        CoreReplaySummary core;
        core.intervals = log.intervals.size();
        core.retiredInstructions = 100 + log.intervals.size();
        core.retiredLoads = 9;
        core.loadValueHash = 0xabcdef;
        s.cores.push_back(core);
    }
    return s;
}

/** Write a complete, valid file; returns what went in. */
std::vector<CoreLog>
writeSample(const std::string &path, std::uint32_t cores = 3,
            bool deps = false)
{
    const auto logs = makeLogs(cores, deps);
    LogWriter writer(path, makeMeta(cores, deps));
    // Interleave cores the way a live recording would.
    for (std::size_t i = 0;; ++i) {
        bool any = false;
        for (std::uint32_t c = 0; c < cores; ++c) {
            if (i < logs[c].intervals.size()) {
                writer.append(c, logs[c].intervals[i]);
                any = true;
            }
        }
        if (!any)
            break;
    }
    writer.finish(makeSummary(logs));
    return logs;
}

void
expectLogsEq(const std::vector<CoreLog> &got,
             const std::vector<CoreLog> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t c = 0; c < want.size(); ++c) {
        ASSERT_EQ(got[c].intervals.size(), want[c].intervals.size())
            << "core " << c;
        for (std::size_t i = 0; i < want[c].intervals.size(); ++i) {
            const auto &g = got[c].intervals[i];
            const auto &w = want[c].intervals[i];
            EXPECT_EQ(g.entries, w.entries) << "core " << c << " iv " << i;
            EXPECT_EQ(g.cisn, w.cisn);
            EXPECT_EQ(g.timestamp, w.timestamp);
            EXPECT_EQ(g.predecessors, w.predecessors);
            // cycle is reporting-only and not persisted.
            EXPECT_EQ(g.cycle, 0u);
        }
    }
}

// --- wire-format primitives ---

TEST(LogFormat, Crc32KnownVector)
{
    const char *msg = "123456789";
    EXPECT_EQ(fmt::crc32(reinterpret_cast<const std::uint8_t *>(msg), 9),
              0xCBF43926u);
    EXPECT_EQ(fmt::crc32(nullptr, 0), 0u);
}

TEST(LogFormat, ZigzagRoundTrip)
{
    for (std::int64_t v : {std::int64_t{0}, std::int64_t{1},
                           std::int64_t{-1}, std::int64_t{123456},
                           std::int64_t{-123456}, INT64_MAX, INT64_MIN})
        EXPECT_EQ(fmt::unzigzag(fmt::zigzag(v)), v) << v;
    EXPECT_EQ(fmt::zigzag(0), 0u);
    EXPECT_EQ(fmt::zigzag(-1), 1u);
    EXPECT_EQ(fmt::zigzag(1), 2u);
}

TEST(LogFormat, VarintRoundTrip)
{
    for (std::uint64_t v :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127},
          std::uint64_t{128}, std::uint64_t{300},
          std::uint64_t{1} << 32, UINT64_MAX}) {
        BitWriter w;
        fmt::writeVarint(w, v);
        EXPECT_EQ(w.bitCount(), fmt::varintBits(v)) << v;
        BitReader r(w.bytes(), w.bitCount());
        std::uint64_t back = 0;
        for (std::uint32_t g = 0;; ++g) {
            ASSERT_LT(g, fmt::kMaxVarintGroups);
            const std::uint64_t group = r.read(8);
            back |= (group & 0x7f) << (7 * g);
            if (!(group & 0x80))
                break;
        }
        EXPECT_EQ(back, v);
        EXPECT_TRUE(r.atEnd());
    }
}

TEST(LogFormat, ChunkHeaderCodec)
{
    fmt::ChunkHeader h;
    h.type = fmt::ChunkType::Data;
    h.core = 5;
    h.seq = 77;
    h.payloadBits = 1234;
    h.payloadCrc = 0xdeadbeef;
    const auto bytes = h.encode();
    fmt::ChunkHeader back;
    ASSERT_TRUE(fmt::ChunkHeader::decode(bytes.data(), back));
    EXPECT_EQ(back.type, h.type);
    EXPECT_EQ(back.core, h.core);
    EXPECT_EQ(back.seq, h.seq);
    EXPECT_EQ(back.payloadBits, h.payloadBits);
    EXPECT_EQ(back.payloadCrc, h.payloadCrc);
    EXPECT_EQ(back.payloadBytes(), (1234u + 7) / 8);

    auto corrupt = bytes;
    corrupt[9] ^= 0x40; // inside the seq field
    EXPECT_FALSE(fmt::ChunkHeader::decode(corrupt.data(), back));
}

// --- round trips ---

TEST(LogStore, RoundTripFile)
{
    const std::string path = tempPath("roundtrip");
    const auto logs = writeSample(path);

    LogReader reader(path);
    EXPECT_EQ(reader.version(), fmt::kFormatVersion);
    EXPECT_EQ(reader.coreCount(), 3u);
    EXPECT_EQ(reader.meta(), makeMeta(3));
    EXPECT_EQ(reader.fingerprint(), makeMeta(3).fingerprint());
    expectLogsEq(reader.readAll(), logs);
    EXPECT_EQ(reader.summary(), makeSummary(logs));

    const LogFileInfo info = reader.info();
    EXPECT_TRUE(info.cleanEnd);
    EXPECT_TRUE(info.hasSummary);
    EXPECT_EQ(info.intervals, 10u); // 2 cores x 5, last core empty
    EXPECT_EQ(info.dataChunks, 2u); // empty core flushes no chunk
    EXPECT_EQ(info.fileBytes, slurp(path).size());

    EXPECT_TRUE(reader.verify().empty());
    std::remove(path.c_str());
}

TEST(LogStore, RoundTripWithDependencies)
{
    const std::string path = tempPath("deps");
    const auto logs = writeSample(path, 4, /*deps=*/true);
    LogReader reader(path);
    expectLogsEq(reader.readAll(), logs);
    EXPECT_TRUE(reader.verify().empty());
    std::remove(path.c_str());
}

TEST(LogStore, StreamWriterMatchesFileWriter)
{
    std::ostringstream sink;
    const auto logs = makeLogs(2);
    LogWriter writer(sink, makeMeta(2));
    for (const auto &iv : logs[0].intervals)
        writer.append(0, iv);
    writer.finish(makeSummary(logs));
    EXPECT_EQ(writer.bytesWritten(), sink.str().size());

    const std::string path = tempPath("stream");
    const std::string blob = sink.str();
    spew(path, {blob.begin(), blob.end()});
    LogReader reader(path);
    expectLogsEq(reader.readAll(), logs);
    std::remove(path.c_str());
}

TEST(LogStore, MultiChunkStreaming)
{
    // Enough bulky intervals to exceed the 64 KiB chunk target several
    // times over: the reader must stitch chunks back together and the
    // delta codec must restart cleanly at every chunk boundary.
    const std::string path = tempPath("chunks");
    rr::sim::Rng rng(11);
    CoreLog log;
    for (int i = 0; i < 9000; ++i) {
        IntervalRecord iv;
        iv.entries.push_back(LogEntry::inorderBlock(1 + rng.below(50)));
        iv.entries.push_back(LogEntry::reorderedLoad(rng.next()));
        iv.cisn = static_cast<rr::sim::Isn>(i);
        iv.timestamp = 1000 + static_cast<std::uint64_t>(i) * 3;
        log.intervals.push_back(std::move(iv));
    }
    {
        LogWriter writer(path, makeMeta(1));
        for (const auto &iv : log.intervals)
            writer.append(0, iv);
        RecordingSummary s;
        s.cores.push_back(
            CoreReplaySummary{log.intervals.size(), 0, 0, 0});
        writer.finish(s);
        EXPECT_GT(writer.stats().counterValue("flushes"), 1u);
        EXPECT_EQ(writer.intervalsWritten(), log.intervals.size());
    }
    LogReader reader(path);
    EXPECT_GT(reader.info().dataChunks, 1u);
    expectLogsEq(reader.readAll(), {log});
    EXPECT_TRUE(reader.verify().empty());
    std::remove(path.c_str());
}

TEST(LogStore, WriterExportsIoCounters)
{
    const std::string path = tempPath("stats");
    writeSample(path);
    LogWriter probe(tempPath("stats2"), makeMeta(2));
    probe.append(0, makeLogs(2)[0].intervals[0]);
    probe.finish(makeSummary(makeLogs(2)));
    const rr::sim::StatSet &st = probe.stats();
    EXPECT_GT(st.counterValue("bytes_written"), 0u);
    EXPECT_GE(st.counterValue("chunks_written"), 3u); // meta+data+summary
    EXPECT_EQ(st.counterValue("intervals_written"), 1u);
    EXPECT_GE(st.counterValue("flushes"), 1u);
    EXPECT_GT(st.counterValue("payload_bits"), 0u);
    std::remove(path.c_str());
    std::remove(tempPath("stats2").c_str());
}

// --- corruption handling ---

TEST(LogStoreCorruption, PayloadBitFlip)
{
    const std::string path = tempPath("payloadflip");
    writeSample(path);
    auto bytes = slurp(path);
    fmt::ChunkHeader h;
    const std::uint64_t off = findChunk(bytes, fmt::ChunkType::Data, &h);
    bytes[off + fmt::kChunkHeaderBytes + 2] ^= 0x10;
    spew(path, bytes);

    LogReader reader(path);
    try {
        reader.readAll();
        FAIL() << "corrupt payload was not detected";
    } catch (const LogStoreError &e) {
        EXPECT_EQ(e.fileOffset(), off);
        EXPECT_EQ(e.chunkSeq(), static_cast<std::int64_t>(h.seq));
        EXPECT_NE(std::string(e.what()).find("payload CRC"),
                  std::string::npos)
            << e.what();
    }
    // verify() reports the same problem without throwing, and keeps
    // walking (summary/interval cross-check fires too).
    const auto issues = LogReader(path).verify();
    ASSERT_FALSE(issues.empty());
    EXPECT_EQ(issues[0].fileOffset, off);
    EXPECT_EQ(issues[0].chunkSeq, static_cast<std::int64_t>(h.seq));
    std::remove(path.c_str());
}

TEST(LogStoreCorruption, ChunkHeaderBitFlip)
{
    const std::string path = tempPath("headerflip");
    writeSample(path);
    auto bytes = slurp(path);
    const std::uint64_t off = findChunk(bytes, fmt::ChunkType::Data);
    bytes[off + 16] ^= 0x01; // payloadBits field
    spew(path, bytes);

    LogReader reader(path);
    try {
        reader.readAll();
        FAIL() << "corrupt chunk header was not detected";
    } catch (const LogStoreError &e) {
        EXPECT_EQ(e.fileOffset(), off);
        EXPECT_NE(std::string(e.what()).find("header CRC"),
                  std::string::npos)
            << e.what();
    }
    const auto issues = LogReader(path).verify();
    ASSERT_FALSE(issues.empty());
    EXPECT_EQ(issues[0].fileOffset, off);
    std::remove(path.c_str());
}

TEST(LogStoreCorruption, ZeroedChunkRegion)
{
    const std::string path = tempPath("zeroed");
    writeSample(path);
    auto bytes = slurp(path);
    fmt::ChunkHeader h;
    const std::uint64_t off = findChunk(bytes, fmt::ChunkType::Data, &h);
    const std::uint64_t len = fmt::kChunkHeaderBytes + h.payloadBytes();
    for (std::uint64_t i = 0; i < len; ++i)
        bytes[off + i] = 0;
    spew(path, bytes);

    EXPECT_THROW(LogReader(path).readAll(), LogStoreError);
    const auto issues = LogReader(path).verify();
    ASSERT_FALSE(issues.empty());
    EXPECT_EQ(issues[0].fileOffset, off);
    std::remove(path.c_str());
}

TEST(LogStoreCorruption, TruncatedMidChunk)
{
    const std::string path = tempPath("truncmid");
    writeSample(path);
    auto bytes = slurp(path);
    const std::uint64_t off = findChunk(bytes, fmt::ChunkType::Data);
    bytes.resize(off + fmt::kChunkHeaderBytes + 1); // cut into payload
    spew(path, bytes);

    LogReader reader(path);
    try {
        reader.readAll();
        FAIL() << "truncation was not detected";
    } catch (const LogStoreError &e) {
        EXPECT_EQ(e.fileOffset(), off);
        EXPECT_NE(std::string(e.what()).find("truncated"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_FALSE(LogReader(path).verify().empty());
    std::remove(path.c_str());
}

TEST(LogStoreCorruption, MissingEndMarker)
{
    const std::string path = tempPath("noend");
    writeSample(path);
    auto bytes = slurp(path);
    // Drop the End chunk exactly (empty payload: 32 header bytes).
    bytes.resize(bytes.size() - fmt::kChunkHeaderBytes);
    spew(path, bytes);

    LogReader reader(path);
    try {
        reader.readAll();
        FAIL() << "missing end marker was not detected";
    } catch (const LogStoreError &e) {
        EXPECT_NE(std::string(e.what()).find("end-of-log"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_FALSE(LogReader(path).verify().empty());
    std::remove(path.c_str());
}

TEST(LogStoreCorruption, UnfinishedWriterFileHasNoSummary)
{
    const std::string path = tempPath("unfinished");
    const std::string tmp = path + ".tmp";
    {
        LogWriter writer(path, makeMeta(2));
        writer.append(0, makeLogs(2)[0].intervals[0]);
        EXPECT_EQ(writer.currentPath(), tmp);
        // no finish(): simulates a crash during recording
    }
    // Crash consistency: the final path never exists half-written; the
    // torn data is only ever visible at the .tmp staging path.
    EXPECT_THROW(LogReader{path}, LogStoreError);
    LogReader reader(tmp);
    EXPECT_THROW(reader.summary(), LogStoreError);
    const auto issues = LogReader(tmp).verify();
    ASSERT_FALSE(issues.empty());
    bool saw_truncation = false;
    for (const auto &i : issues)
        saw_truncation |= i.message.find("truncated") != std::string::npos;
    EXPECT_TRUE(saw_truncation);
    std::remove(tmp.c_str());
}

TEST(LogStoreCorruption, SummaryIntervalCountMismatch)
{
    const std::string path = tempPath("badsummary");
    const auto logs = makeLogs(2);
    LogWriter writer(path, makeMeta(2));
    for (const auto &iv : logs[0].intervals)
        writer.append(0, iv);
    RecordingSummary s = makeSummary(logs);
    s.cores[0].intervals += 3; // lie about the interval count
    writer.finish(s);

    const auto issues = LogReader(path).verify();
    ASSERT_FALSE(issues.empty());
    EXPECT_NE(issues[0].message.find("summary promises"),
              std::string::npos)
        << issues[0].message;
    std::remove(path.c_str());
}

// --- compatibility rejection ---

TEST(LogStoreReject, BadMagic)
{
    const std::string path = tempPath("magic");
    writeSample(path);
    auto bytes = slurp(path);
    bytes[0] = 'X';
    spew(path, bytes);
    EXPECT_THROW(LogReader reader(path), LogStoreError);
    std::remove(path.c_str());
}

TEST(LogStoreReject, HeaderCrcMismatch)
{
    const std::string path = tempPath("hdrcrc");
    writeSample(path);
    auto bytes = slurp(path);
    bytes[17] ^= 0x01; // core-count field, CRC left stale
    spew(path, bytes);
    try {
        LogReader reader(path);
        FAIL() << "stale header CRC was not detected";
    } catch (const LogStoreError &e) {
        EXPECT_NE(std::string(e.what()).find("header CRC"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(LogStoreReject, NewerFormatVersion)
{
    const std::string path = tempPath("version");
    writeSample(path);
    auto bytes = slurp(path);
    bytes[4] = static_cast<std::uint8_t>(fmt::kFormatVersion + 1);
    bytes[5] = 0;
    fixFileHeaderCrc(bytes);
    spew(path, bytes);
    try {
        LogReader reader(path);
        FAIL() << "newer format version was not refused";
    } catch (const LogStoreError &e) {
        EXPECT_NE(std::string(e.what()).find("newer than this reader"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(LogStoreReject, FingerprintMismatch)
{
    const std::string path = tempPath("fingerprint");
    writeSample(path);
    auto bytes = slurp(path);
    bytes[8] ^= 0xff; // low byte of the stored fingerprint
    fixFileHeaderCrc(bytes);
    spew(path, bytes);
    try {
        LogReader reader(path);
        FAIL() << "fingerprint mismatch was not refused";
    } catch (const LogStoreError &e) {
        EXPECT_NE(std::string(e.what()).find("fingerprint mismatch"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(LogStoreReject, EmptyAndShortFiles)
{
    const std::string path = tempPath("short");
    spew(path, {});
    EXPECT_THROW(LogReader reader(path), LogStoreError);
    spew(path, {'R', 'R', 'L', 'G', 1});
    EXPECT_THROW(LogReader reader(path), LogStoreError);
    std::remove(path.c_str());
}

// --- recovery, consistent cuts, partial files ---

/** Logs where every core has data and timestamps are globally unique. */
std::vector<CoreLog>
makeFullLogs(std::uint32_t cores, int per_core = 6)
{
    std::vector<CoreLog> logs(cores);
    rr::sim::Rng rng(11);
    for (std::uint32_t c = 0; c < cores; ++c) {
        for (int i = 0; i < per_core; ++i) {
            IntervalRecord iv;
            iv.entries.push_back(
                LogEntry::inorderBlock(1 + rng.below(64)));
            iv.entries.push_back(LogEntry::reorderedLoad(rng.next()));
            iv.cisn = static_cast<rr::sim::Isn>(2 * (i + 1));
            iv.timestamp = 1 + static_cast<std::uint64_t>(i) * cores + c;
            logs[c].intervals.push_back(std::move(iv));
        }
    }
    return logs;
}

/** Write @p logs with small chunks so every core spans many chunks. */
void
writeWithChunkTarget(const std::string &path,
                     const std::vector<CoreLog> &logs,
                     std::size_t chunk_bytes)
{
    WriterOptions opts;
    opts.chunkTargetBytes = chunk_bytes;
    LogWriter writer(path, makeMeta(static_cast<std::uint32_t>(
                               logs.size())),
                     opts);
    for (std::size_t i = 0;; ++i) {
        bool any = false;
        for (std::uint32_t c = 0; c < logs.size(); ++c) {
            if (i < logs[c].intervals.size()) {
                writer.append(c, logs[c].intervals[i]);
                any = true;
            }
        }
        if (!any)
            break;
    }
    writer.finish(makeSummary(logs));
}

TEST(LogStoreRecovery, CleanFileSalvagesCompletely)
{
    const std::string path = tempPath("recover_clean");
    const auto logs = writeSample(path);

    RecoveryResult rec = LogReader(path).recoverPrefix();
    EXPECT_TRUE(rec.cleanEnd);
    EXPECT_TRUE(rec.hasSummary);
    EXPECT_TRUE(rec.issues.empty());
    EXPECT_EQ(rec.droppedChunks, 0u);
    expectLogsEq(rec.logs, logs);
    ASSERT_EQ(rec.coreTruncated.size(), logs.size());
    for (bool t : rec.coreTruncated)
        EXPECT_FALSE(t);

    // A clean salvage loses nothing to the consistent cut.
    const std::uint64_t before = rec.salvagedIntervals;
    consistentCut(rec.logs, rec.coreTruncated);
    std::uint64_t after = 0;
    for (const auto &log : rec.logs)
        after += log.intervals.size();
    EXPECT_EQ(after, before);
    std::remove(path.c_str());
}

TEST(LogStoreRecovery, TruncatedTailSalvagesPerCoreChunkPrefixes)
{
    const std::string path = tempPath("recover_trunc");
    const auto logs = makeFullLogs(2);
    writeWithChunkTarget(path, logs, 16); // ~1 interval per chunk
    auto bytes = slurp(path);
    bytes.resize(bytes.size() * 2 / 3); // tear well into the data
    spew(path, bytes);

    RecoveryResult rec = LogReader(path).recoverPrefix();
    EXPECT_FALSE(rec.cleanEnd);
    EXPECT_FALSE(rec.issues.empty());
    EXPECT_GE(rec.salvagedChunks, 1u);
    EXPECT_GT(rec.salvagedIntervals, 0u);
    EXPECT_LT(rec.salvagedIntervals,
              2u * logs[0].intervals.size());
    // Without an End marker every core is suspect.
    for (bool t : rec.coreTruncated)
        EXPECT_TRUE(t);
    // Each salvaged log is an exact prefix of what was recorded.
    for (std::size_t c = 0; c < rec.logs.size(); ++c) {
        const auto &got = rec.logs[c].intervals;
        ASSERT_LE(got.size(), logs[c].intervals.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i], logs[c].intervals[i])
                << "core " << c << " iv " << i;
    }

    // The cut keeps exactly the globally-closed prefix: every kept
    // timestamp is <= the smallest per-core last timestamp.
    const std::uint64_t cut = consistentCut(rec.logs);
    for (const auto &log : rec.logs)
        for (const auto &iv : log.intervals)
            EXPECT_LE(iv.timestamp, cut);
    std::remove(path.c_str());
}

TEST(LogStoreRecovery, CorruptChunkKillsOnlyThatCoreFromThereOn)
{
    const std::string path = tempPath("recover_corrupt");
    const auto logs = makeFullLogs(2);
    writeWithChunkTarget(path, logs, 16);
    auto bytes = slurp(path);

    // Corrupt the payload of core 0's *second* data chunk.
    std::uint64_t off = fmt::kFileHeaderBytes;
    int seen_core0 = 0;
    std::uint64_t target = 0;
    while (off + fmt::kChunkHeaderBytes <= bytes.size()) {
        fmt::ChunkHeader h;
        ASSERT_TRUE(fmt::ChunkHeader::decode(bytes.data() + off, h));
        if (h.type == fmt::ChunkType::Data && h.core == 0 &&
            ++seen_core0 == 2) {
            target = off;
            break;
        }
        off += fmt::kChunkHeaderBytes + h.payloadBytes();
    }
    ASSERT_NE(target, 0u);
    bytes[target + fmt::kChunkHeaderBytes] ^= 0x40;
    spew(path, bytes);

    RecoveryResult rec = LogReader(path).recoverPrefix();
    // Framing stays intact, so the walk reaches the End marker...
    EXPECT_TRUE(rec.cleanEnd);
    EXPECT_GE(rec.droppedChunks, 1u);
    EXPECT_FALSE(rec.issues.empty());
    ASSERT_EQ(rec.logs.size(), 2u);
    // ...core 0 keeps only the intervals before the corrupt chunk,
    // core 1 is complete and not marked truncated.
    EXPECT_LT(rec.logs[0].intervals.size(), logs[0].intervals.size());
    EXPECT_GE(rec.logs[0].intervals.size(), 1u);
    EXPECT_EQ(rec.logs[1].intervals.size(), logs[1].intervals.size());
    EXPECT_TRUE(rec.coreTruncated[0]);
    EXPECT_FALSE(rec.coreTruncated[1]);

    // Only the damaged core constrains the cut; core 1 gets trimmed
    // back to the point core 0's data still covers.
    const std::uint64_t cut =
        consistentCut(rec.logs, rec.coreTruncated);
    EXPECT_EQ(cut, rec.logs[0].intervals.back().timestamp);
    std::remove(path.c_str());
}

TEST(LogStoreRecovery, SequenceBreakEndsTheSalvageForEveryCore)
{
    const std::string path = tempPath("recover_seqbreak");
    const auto logs = makeFullLogs(2);
    writeWithChunkTarget(path, logs, 16); // ~1 interval per chunk
    auto bytes = slurp(path);

    // Splice out core 0's third data chunk.
    std::uint64_t off = fmt::kFileHeaderBytes;
    int seen_core0 = 0;
    fmt::ChunkHeader h;
    while (off + fmt::kChunkHeaderBytes <= bytes.size()) {
        ASSERT_TRUE(fmt::ChunkHeader::decode(bytes.data() + off, h));
        if (h.type == fmt::ChunkType::Data && h.core == 0 &&
            ++seen_core0 == 3)
            break;
        off += fmt::kChunkHeaderBytes + h.payloadBytes();
    }
    ASSERT_EQ(seen_core0, 3);
    bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(off),
                bytes.begin() + static_cast<std::ptrdiff_t>(
                                    off + fmt::kChunkHeaderBytes +
                                    h.payloadBytes()));
    spew(path, bytes);

    EXPECT_THROW(LogReader(path).readAll(), LogStoreError);
    RecoveryResult rec = LogReader(path).recoverPrefix();
    // The walk stops at the break, before any chunk after the hole.
    ASSERT_EQ(rec.issues.size(), 1u);
    EXPECT_EQ(rec.issues[0].fileOffset, off);
    EXPECT_NE(rec.issues[0].message.find("sequence break"),
              std::string::npos)
        << rec.issues[0].message;
    EXPECT_FALSE(rec.cleanEnd);
    EXPECT_EQ(rec.usableBytes, off);
    EXPECT_EQ(rec.droppedChunks, 0u);
    for (bool t : rec.coreTruncated)
        EXPECT_TRUE(t);
    // Each core keeps an exact prefix; core 0 stops before the hole.
    EXPECT_GT(rec.logs[0].intervals.size(), 0u);
    EXPECT_LT(rec.logs[0].intervals.size(), logs[0].intervals.size());
    std::uint64_t last = UINT64_MAX;
    for (std::size_t c = 0; c < rec.logs.size(); ++c) {
        ASSERT_FALSE(rec.logs[c].intervals.empty());
        last = std::min(last, rec.logs[c].intervals.back().timestamp);
        for (std::size_t i = 0; i < rec.logs[c].intervals.size(); ++i)
            EXPECT_EQ(rec.logs[c].intervals[i], logs[c].intervals[i]);
    }

    // Every core is truncated, so each one bounds the cut.
    EXPECT_EQ(consistentCut(rec.logs, rec.coreTruncated), last);
    for (const auto &log : rec.logs)
        for (const auto &iv : log.intervals)
            EXPECT_LE(iv.timestamp, last);
    std::remove(path.c_str());
}

TEST(LogStoreRecovery, ConsistentCutSemantics)
{
    const auto make = [] {
        std::vector<CoreLog> logs(2);
        for (std::uint64_t ts : {1, 5, 9})
            logs[0].intervals.push_back(IntervalRecord{{}, 1, ts, 0, {}});
        for (std::uint64_t ts : {2, 6, 10})
            logs[1].intervals.push_back(IntervalRecord{{}, 1, ts, 0, {}});
        return logs;
    };

    // Empty vector = conservatively treat every core as truncated.
    auto logs = make();
    EXPECT_EQ(consistentCut(logs), 9u);
    EXPECT_EQ(logs[0].intervals.size(), 3u);
    EXPECT_EQ(logs[1].intervals.size(), 2u); // ts 10 dropped

    // Only a truncated core constrains the cut: core 1 truncated at
    // ts 10 allows everything through.
    logs = make();
    EXPECT_EQ(consistentCut(logs, {false, true}), 10u);
    EXPECT_EQ(logs[0].intervals.size(), 3u);
    EXPECT_EQ(logs[1].intervals.size(), 3u);

    // Core 0 truncated at ts 9 trims the complete core too: its ts-10
    // interval may depend on what core 0 lost.
    logs = make();
    EXPECT_EQ(consistentCut(logs, {true, false}), 9u);
    EXPECT_EQ(logs[1].intervals.size(), 2u);

    // No truncated cores: nothing is trimmed.
    logs = make();
    EXPECT_EQ(consistentCut(logs, {false, false}), 10u);
    EXPECT_EQ(logs[0].intervals.size() + logs[1].intervals.size(), 6u);

    // A truncated core with nothing salvaged forces an empty cut.
    logs = make();
    logs[0].intervals.clear();
    EXPECT_EQ(consistentCut(logs, {true, false}), 0u);
    EXPECT_TRUE(logs[1].intervals.empty());

    // Repair flow idempotence: once a cut is applied and the result is
    // re-read from a cleanly-salvaged (partial) file, no core is
    // truncated any more, so a second cut trims nothing.
    logs = make();
    consistentCut(logs, {true, false});
    auto again = logs;
    consistentCut(again, {false, false});
    for (std::size_t c = 0; c < logs.size(); ++c)
        EXPECT_EQ(again[c].intervals.size(), logs[c].intervals.size());
}

// A reordered store lives in two intervals: the one that counts it and,
// `offset` back, the one it performed in (where rnr::patch() moves it).
// The cut must not keep the second without the first.
TEST(LogStoreRecovery, ConsistentCutKeepsPatchedStoresWithTheirIntervals)
{
    std::vector<CoreLog> logs(2);
    for (std::uint64_t ts : {1, 5, 9})
        logs[0].intervals.push_back(IntervalRecord{{}, 1, ts, 0, {}});
    for (std::uint64_t ts : {2, 6, 7})
        logs[1].intervals.push_back(IntervalRecord{{}, 1, ts, 0, {}});
    // Core 0 counts a store at ts 9 that performed at ts 5.
    logs[0].intervals[2].entries.push_back(
        LogEntry::reorderedStore(0x40, 7, 1));
    // Core 1 counts an atomic at ts 6 that performed at ts 2.
    logs[1].intervals[1].entries.push_back(
        LogEntry::reorderedAtomic(0x48, 1, 2, 1));

    // Core 1 is truncated at ts 7, which trims core 0's ts-9 interval.
    // Its store performed at ts 5, so the cut drops below 5; that trims
    // core 1's ts-6 interval, whose atomic performed at ts 2, so the
    // cut drops below 2 as well.
    EXPECT_EQ(consistentCut(logs, {false, true}), 1u);
    ASSERT_EQ(logs[0].intervals.size(), 1u);
    EXPECT_EQ(logs[0].intervals[0].timestamp, 1u);
    EXPECT_TRUE(logs[1].intervals.empty());

    // A store counted in a kept interval holds nothing back.
    std::vector<CoreLog> kept(2);
    for (std::uint64_t ts : {1, 5})
        kept[0].intervals.push_back(IntervalRecord{{}, 1, ts, 0, {}});
    kept[0].intervals[1].entries.push_back(
        LogEntry::reorderedStore(0x40, 7, 1));
    for (std::uint64_t ts : {2, 6, 7})
        kept[1].intervals.push_back(IntervalRecord{{}, 1, ts, 0, {}});
    EXPECT_EQ(consistentCut(kept, {true, false}), 5u);
    EXPECT_EQ(kept[0].intervals.size(), 2u);
    EXPECT_EQ(kept[1].intervals.size(), 1u);
}

TEST(LogStorePartial, FinishPartialPreservesSummaryAndFlags)
{
    const std::string path = tempPath("partial");
    const auto logs = makeFullLogs(2, 4);
    const RecordingSummary full = makeSummary(logs);
    {
        LogWriter writer(path, makeMeta(2));
        // Persist only a prefix (what `rrlog repair` salvaged)...
        for (std::uint32_t c = 0; c < 2; ++c)
            for (int i = 0; i < 2; ++i)
                writer.append(c, logs[c].intervals[i]);
        // ...but preserve the original full-recording summary.
        writer.finishPartial(&full);
        EXPECT_TRUE(writer.headerFlags() & fmt::kFlagPartial);
    }

    LogReader reader(path);
    EXPECT_TRUE(reader.partial());
    // Partial files are exempt from summary/data count matching...
    EXPECT_TRUE(reader.verify().empty());
    // ...and still replayable/readable end to end.
    const auto got = reader.readAll();
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].intervals.size(), 2u);
    EXPECT_EQ(reader.summary(), full);

    RecoveryResult rec = LogReader(path).recoverPrefix();
    EXPECT_TRUE(rec.cleanEnd);
    for (bool t : rec.coreTruncated)
        EXPECT_FALSE(t);
    std::remove(path.c_str());
}

TEST(LogStorePartial, FinishPartialWithoutSummary)
{
    const std::string path = tempPath("partial_nosum");
    const auto logs = makeFullLogs(2, 2);
    {
        LogWriter writer(path, makeMeta(2));
        writer.append(0, logs[0].intervals[0]);
        writer.finishPartial();
    }
    LogReader reader(path);
    EXPECT_TRUE(reader.partial());
    EXPECT_TRUE(reader.verify().empty());
    EXPECT_THROW(reader.summary(), LogStoreError);
    EXPECT_EQ(reader.readAll()[0].intervals.size(), 1u);
    std::remove(path.c_str());
}

TEST(LogStorePartial, BudgetFlushesAConsistentPrefixAndFlagsPartial)
{
    const std::string path = tempPath("budget");
    const auto logs = makeFullLogs(2, 8);
    WriterOptions opts;
    opts.chunkTargetBytes = 32;
    // The writer takes its budget from the installed fault plan.
    struct PlanGuard
    {
        PlanGuard()
        {
            rr::sim::FaultInjector::install(
                rr::sim::FaultPlan::parse("budget=400"));
        }
        ~PlanGuard() { rr::sim::FaultInjector::uninstall(); }
    } plan;
    LogWriter writer(path, makeMeta(2), opts);
    std::size_t appended = 0;
    for (std::size_t i = 0; i < 8; ++i) {
        for (std::uint32_t c = 0; c < 2; ++c) {
            writer.append(c, logs[c].intervals[i]);
            ++appended;
        }
    }
    writer.finish(makeSummary(logs));
    EXPECT_TRUE(writer.headerFlags() & fmt::kFlagPartial);
    EXPECT_EQ(writer.stats().counterValue("budget_exceeded"), 1u);
    EXPECT_GT(writer.stats().counterValue("intervals_dropped_budget"),
              0u);
    EXPECT_EQ(writer.intervalsWritten() +
                  writer.stats().counterValue("intervals_dropped_budget"),
              appended);

    LogReader reader(path);
    EXPECT_TRUE(reader.partial());
    EXPECT_TRUE(reader.verify().empty());
    const auto got = reader.readAll();
    // The budget trip lands every interval appended before it — the
    // on-disk set is an append-order (close-order) prefix per core.
    std::uint64_t kept = 0;
    for (std::size_t c = 0; c < got.size(); ++c) {
        ASSERT_LE(got[c].intervals.size(), logs[c].intervals.size());
        for (std::size_t i = 0; i < got[c].intervals.size(); ++i)
            EXPECT_EQ(got[c].intervals[i], logs[c].intervals[i]);
        kept += got[c].intervals.size();
    }
    EXPECT_GT(kept, 0u);
    EXPECT_LT(kept, appended);
    // Both cores were cut at the same append round (+/- the interval
    // that tripped the budget).
    EXPECT_LE(static_cast<std::uint64_t>(
                  std::abs(static_cast<long>(got[0].intervals.size()) -
                           static_cast<long>(got[1].intervals.size()))),
              1u);
    std::remove(path.c_str());
}

// --- the read path ---

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RR_TEST_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RR_TEST_UNDER_SANITIZER 1
#endif
#endif
#ifndef RR_TEST_UNDER_SANITIZER
#define RR_TEST_UNDER_SANITIZER 0
#endif

TEST(LogStoreIngest, EveryChunkSizeDecodesToTheWrittenLogs)
{
    // Many tiny chunks (a delta-codec restart every few intervals) to
    // one chunk per core.
    const auto logs = makeFullLogs(4, 50);
    for (const std::size_t chunk_bytes : {std::size_t{16},
                                          std::size_t{256},
                                          std::size_t{1} << 20}) {
        const std::string path =
            tempPath("chunks_" + std::to_string(chunk_bytes));
        writeWithChunkTarget(path, logs, chunk_bytes);
        expectLogsEq(LogReader(path).readAll(), logs);
        std::remove(path.c_str());
    }
}

/** One decode attempt, with any LogStoreError captured for comparison
 *  with the pinned outcome. */
struct DecodeOutcome
{
    bool threw = false;
    std::string message;
    std::uint64_t offset = 0;
    std::int64_t seq = 0;
    LogErrorKind kind = LogErrorKind::Format;
    std::uint64_t intervals = 0;
};

DecodeOutcome
decodeOutcome(const std::string &path)
{
    DecodeOutcome o;
    try {
        LogReader reader(path);
        const auto logs = reader.readAll();
        for (const auto &log : logs)
            o.intervals += log.intervals.size();
    } catch (const LogStoreError &e) {
        o.threw = true;
        o.message = e.what();
        o.offset = e.fileOffset();
        o.seq = e.chunkSeq();
        o.kind = e.kind();
    }
    return o;
}

/**
 * One corruption class of the read matrix: a mutation of the pristine
 * matrix file (makeFullLogs(3, 20) in 64-byte chunks, 1486 bytes) and
 * the problem every reader reports for it, pinned exactly. An empty
 * message means the file decodes. Every problem is a Format error.
 */
struct CorruptionCase
{
    const char *name;
    std::function<void(std::vector<std::uint8_t> &)> corrupt;
    const char *message;
    std::uint64_t offset;
    std::int64_t seq;
};

std::vector<CorruptionCase>
corruptionCases()
{
    return {
        {"pristine", [](std::vector<std::uint8_t> &) {}, "", 0, 0},
        {"payload_bit_flip",
         [](std::vector<std::uint8_t> &b) {
             const std::uint64_t off =
                 findChunk(b, fmt::ChunkType::Data);
             b[off + fmt::kChunkHeaderBytes] ^= 0x20;
         },
         "chunk payload CRC mismatch (file offset 74, chunk 1)", 74, 1},
        {"late_payload_bit_flip",
         [](std::vector<std::uint8_t> &b) {
             // Corrupt a *late* data chunk: the reader decodes every
             // chunk before it and still reports this one.
             std::uint64_t off = fmt::kFileHeaderBytes, last = 0;
             while (off + fmt::kChunkHeaderBytes <= b.size()) {
                 fmt::ChunkHeader h;
                 ASSERT_TRUE(
                     fmt::ChunkHeader::decode(b.data() + off, h));
                 if (h.type == fmt::ChunkType::Data)
                     last = off;
                 off += fmt::kChunkHeaderBytes + h.payloadBytes();
             }
             ASSERT_NE(last, 0u);
             b[last + fmt::kChunkHeaderBytes] ^= 0x20;
         },
         "chunk payload CRC mismatch (file offset 1282, chunk 12)", 1282,
         12},
        {"chunk_header_bit_flip",
         [](std::vector<std::uint8_t> &b) {
             const std::uint64_t off =
                 findChunk(b, fmt::ChunkType::Data);
             b[off + 16] ^= 0x01;
         },
         "chunk header CRC mismatch (corrupt or misaligned framing) "
         "(file offset 74)",
         74, -1},
        {"zeroed_chunk",
         [](std::vector<std::uint8_t> &b) {
             fmt::ChunkHeader h;
             const std::uint64_t off =
                 findChunk(b, fmt::ChunkType::Data, &h);
             const std::uint64_t len =
                 fmt::kChunkHeaderBytes + h.payloadBytes();
             for (std::uint64_t i = 0; i < len; ++i)
                 b[off + i] = 0;
         },
         "chunk header CRC mismatch (corrupt or misaligned framing) "
         "(file offset 74)",
         74, -1},
        {"truncated_mid_payload",
         [](std::vector<std::uint8_t> &b) {
             const std::uint64_t off =
                 findChunk(b, fmt::ChunkType::Data);
             b.resize(off + fmt::kChunkHeaderBytes + 1);
         },
         "truncated chunk: header promises 76 payload bytes but the file "
         "ends first (file offset 74, chunk 1)",
         74, 1},
        {"truncated_mid_header",
         [](std::vector<std::uint8_t> &b) {
             const std::uint64_t off =
                 findChunk(b, fmt::ChunkType::Data);
             b.resize(off + 7);
         },
         "truncated chunk header (file offset 74)", 74, -1},
        {"missing_end_marker",
         [](std::vector<std::uint8_t> &b) {
             b.resize(b.size() - fmt::kChunkHeaderBytes);
         },
         "no end-of-log marker: the recording was truncated "
         "(LogWriter::finish never ran or the file was cut short) "
         "(file offset 1454)",
         1454, -1},
        {"summary_payload_bit_flip",
         [](std::vector<std::uint8_t> &b) {
             const std::uint64_t off =
                 findChunk(b, fmt::ChunkType::Summary);
             b[off + fmt::kChunkHeaderBytes] ^= 0x04;
         },
         "chunk payload CRC mismatch (file offset 1391, chunk 13)", 1391,
         13},
        {"dropped_data_chunk",
         [](std::vector<std::uint8_t> &b) {
             // Splice out the first data chunk: its successor arrives
             // with the next sequence number but one.
             fmt::ChunkHeader h;
             const std::uint64_t off =
                 findChunk(b, fmt::ChunkType::Data, &h);
             b.erase(b.begin() + static_cast<std::ptrdiff_t>(off),
                     b.begin() + static_cast<std::ptrdiff_t>(
                                     off + fmt::kChunkHeaderBytes +
                                     h.payloadBytes()));
         },
         "chunk sequence break: expected 1, found 2 (file offset 74, "
         "chunk 2)",
         74, 2},
        {"trailing_bytes",
         [](std::vector<std::uint8_t> &b) {
             b.insert(b.end(), {0xde, 0xad, 0xbe});
         },
         "trailing bytes after the end-of-log marker (file offset 1486)",
         1486, -1},
    };
}

/** Write the pristine matrix file to @p path; returns its bytes. */
std::vector<std::uint8_t>
writeMatrixFile(const std::string &path)
{
    writeWithChunkTarget(path, makeFullLogs(3, 20), 64);
    auto bytes = slurp(path);
    EXPECT_EQ(bytes.size(), 1486u);
    return bytes;
}

TEST(LogStoreIngest, CorruptionMatrixIngestParity)
{
    // Every corruption class: the reader reports exactly the pinned
    // message, file offset, chunk seq and kind (or decodes all 60
    // intervals).
    const std::string path = tempPath("parity");
    const auto pristine = writeMatrixFile(path);

    for (const CorruptionCase &c : corruptionCases()) {
        auto bytes = pristine;
        c.corrupt(bytes);
        spew(path, bytes);
        const DecodeOutcome got = decodeOutcome(path);
        EXPECT_EQ(got.threw, *c.message != '\0') << c.name;
        EXPECT_EQ(got.message, c.message) << c.name;
        EXPECT_EQ(got.offset, c.offset) << c.name;
        EXPECT_EQ(got.seq, c.seq) << c.name;
        EXPECT_EQ(got.kind, LogErrorKind::Format) << c.name;
        EXPECT_EQ(got.intervals, got.threw ? 0u : 60u) << c.name;
    }
    std::remove(path.c_str());
}

TEST(LogStoreIngest, CorruptionMatrixReplayJob)
{
    // The replay service and `rrsim replay FILE` open, decode and
    // verify a file through svc::runJob. A damaged file must fail with
    // exactly the pinned problem — its message names the file offset
    // and chunk — classed as corrupt.
    const std::string path = tempPath("replay_job");
    const auto pristine = writeMatrixFile(path);

    for (const CorruptionCase &c : corruptionCases()) {
        if (*c.message == '\0')
            continue; // the synthetic logs name no replayable kernel
        auto bytes = pristine;
        c.corrupt(bytes);
        spew(path, bytes);
        rr::svc::JobParams params;
        params.kind = rr::svc::JobKind::Replay;
        params.file = path;
        params.jobs = 4;
        const rr::svc::JobOutcome out =
            rr::svc::runJob(params, rr::svc::CancelToken{});
        EXPECT_FALSE(out.ok) << c.name;
        EXPECT_EQ(out.message, c.message) << c.name;
        EXPECT_EQ(out.errorClass, 1) << c.name;
    }
    std::remove(path.c_str());
}

TEST(LogStoreIngest, EntryPointPoliciesOnTheMatrix)
{
    // What each entry point does with a problem the chunk walk finds:
    // info() and summary() throw it (summary() reads no data chunk),
    // verify() notes it and goes on, recoverPrefix() notes it and ends
    // the salvage — except past the End marker, which bounds nothing.
    const std::string path = tempPath("policies");
    const auto pristine = writeMatrixFile(path);
    const auto mutate = [&](const char *name) {
        auto bytes = pristine;
        for (const CorruptionCase &c : corruptionCases())
            if (std::string(c.name) == name)
                c.corrupt(bytes);
        spew(path, bytes);
    };
    const auto thrown = [](const std::function<void()> &call) {
        try {
            call();
        } catch (const LogStoreError &e) {
            return std::string(e.what());
        }
        return std::string();
    };

    mutate("dropped_data_chunk");
    const std::string seq_break =
        "chunk sequence break: expected 1, found 2 (file offset 74, "
        "chunk 2)";
    EXPECT_EQ(thrown([&] { LogReader(path).info(); }), seq_break);
    EXPECT_EQ(thrown([&] { LogReader(path).summary(); }), seq_break);
    auto issues = LogReader(path).verify();
    ASSERT_EQ(issues.size(), 2u);
    EXPECT_EQ(issues[0].message, "chunk sequence break: expected 1, found 2");
    EXPECT_EQ(issues[0].fileOffset, 74u);
    EXPECT_EQ(issues[0].chunkSeq, 2);
    EXPECT_EQ(issues[1].message,
              "core 0: summary promises 20 intervals, data chunks hold 15");
    RecoveryResult rec = LogReader(path).recoverPrefix();
    ASSERT_EQ(rec.issues.size(), 1u);
    EXPECT_EQ(rec.issues[0].message, "salvage stopped: " + seq_break);
    EXPECT_FALSE(rec.cleanEnd);
    EXPECT_FALSE(rec.hasSummary);
    EXPECT_EQ(rec.salvagedIntervals, 0u);
    EXPECT_EQ(rec.usableBytes, 74u);
    EXPECT_EQ(rec.coreTruncated, std::vector<bool>(3, true));

    mutate("trailing_bytes");
    const std::string trailing =
        "trailing bytes after the end-of-log marker (file offset 1486)";
    EXPECT_EQ(thrown([&] { LogReader(path).info(); }), trailing);
    EXPECT_EQ(thrown([&] { LogReader(path).summary(); }), trailing);
    issues = LogReader(path).verify();
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].message,
              "trailing bytes after the end-of-log marker");
    rec = LogReader(path).recoverPrefix();
    EXPECT_TRUE(rec.issues.empty());
    EXPECT_TRUE(rec.cleanEnd);
    EXPECT_EQ(rec.salvagedIntervals, 60u);

    mutate("missing_end_marker");
    const LogFileInfo info = LogReader(path).info();
    EXPECT_FALSE(info.cleanEnd);
    EXPECT_EQ(info.intervals, 60u);
    issues = LogReader(path).verify();
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].message,
              "no end-of-log marker: the recording was truncated");
    rec = LogReader(path).recoverPrefix();
    EXPECT_TRUE(rec.issues.empty());
    EXPECT_FALSE(rec.cleanEnd);

    // summary() decodes no data chunk, so a damaged one does not stop
    // it; the decoding readers still refuse the file.
    mutate("payload_bit_flip");
    EXPECT_EQ(LogReader(path).summary(), makeSummary(makeFullLogs(3, 20)));
    EXPECT_EQ(thrown([&] { LogReader(path).info(); }),
              "chunk payload CRC mismatch (file offset 74, chunk 1)");
    std::remove(path.c_str());
}

TEST(LogStoreIngest, WalkIntervalsEarlyStop)
{
    const std::string path = tempPath("walk_stop");
    writeSample(path); // 10 intervals across 2 data chunks

    LogReader reader(path);
    std::uint64_t seen = 0;
    const bool complete = reader.walkIntervals(
        [&seen](rr::sim::CoreId, const IntervalRecord &,
                const LogReader::ChunkView &) {
            return ++seen < 3; // stop after the third interval
        });
    EXPECT_FALSE(complete);
    EXPECT_EQ(seen, 3u);

    // A full walk reports completion and sees everything, with
    // monotonically non-decreasing chunk offsets.
    seen = 0;
    std::uint64_t last_offset = 0;
    const bool full = LogReader(path).walkIntervals(
        [&](rr::sim::CoreId, const IntervalRecord &,
            const LogReader::ChunkView &view) {
            ++seen;
            EXPECT_GE(view.offset, last_offset);
            last_offset = view.offset;
            return true;
        });
    EXPECT_TRUE(full);
    EXPECT_EQ(seen, 10u);
    std::remove(path.c_str());
}

TEST(LogStoreIngest, StreamingWalkKeepsRssBounded)
{
    if (RR_TEST_UNDER_SANITIZER)
        GTEST_SKIP() << "RSS accounting is meaningless under sanitizers";

    // A file holding several MiB of intervals, walked with the
    // streaming API (the rrlog stats/dump path): peak RSS must grow by
    // far less than the file size, because only one chunk is ever
    // resident.
    const std::string path = tempPath("rss");
    rr::sim::Rng rng(23);
    {
        LogWriter writer(path, makeMeta(1));
        IntervalRecord iv;
        for (int i = 0; i < 400'000; ++i) {
            iv.entries.clear();
            iv.entries.push_back(
                LogEntry::inorderBlock(1 + rng.below(64)));
            iv.entries.push_back(LogEntry::reorderedLoad(rng.next()));
            iv.cisn = static_cast<rr::sim::Isn>(i);
            iv.timestamp = static_cast<std::uint64_t>(i) + 1;
            writer.append(0, iv);
        }
        RecordingSummary s;
        s.cores.push_back(CoreReplaySummary{400'000, 0, 0, 0});
        writer.finish(s);
    }
    const std::uint64_t file_bytes = slurp(path).size();
    ASSERT_GT(file_bytes, 4u << 20);

    struct rusage before;
    ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);
    std::uint64_t seen = 0;
    LogReader reader(path);
    reader.walkIntervals([&seen](rr::sim::CoreId,
                                 const IntervalRecord &,
                                 const LogReader::ChunkView &) {
        ++seen;
        return true;
    });
    struct rusage after;
    ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);
    EXPECT_EQ(seen, 400'000u);

    // ru_maxrss is KiB on Linux. Allow generous slack (allocator
    // overhead, the slurp above) — the point is "not O(file size)".
    const long grown_kib = after.ru_maxrss - before.ru_maxrss;
    EXPECT_LT(grown_kib, static_cast<long>(file_bytes >> 11))
        << "walk grew RSS by " << grown_kib << " KiB over a "
        << (file_bytes >> 10) << " KiB file";
    std::remove(path.c_str());
}

TEST(LogStoreIo, WriterAndReaderSurfaceOsErrorsWithErrno)
{
    try {
        LogWriter writer("/nonexistent-rr-dir/out.rrlog", makeMeta(1));
        FAIL() << "expected LogStoreError";
    } catch (const LogStoreError &e) {
        EXPECT_EQ(e.kind(), LogErrorKind::Io);
        EXPECT_EQ(e.osError(), ENOENT);
        EXPECT_NE(std::string(e.what()).find("No such file"),
                  std::string::npos)
            << e.what();
    }
    try {
        LogReader reader(tempPath("does_not_exist"));
        FAIL() << "expected LogStoreError";
    } catch (const LogStoreError &e) {
        EXPECT_EQ(e.kind(), LogErrorKind::Io);
        EXPECT_EQ(e.osError(), ENOENT);
    }
    // Structural failures keep the default Format kind.
    const std::string path = tempPath("kind_format");
    spew(path, {'R', 'R', 'L', 'G', 1});
    try {
        LogReader reader(path);
        FAIL() << "expected LogStoreError";
    } catch (const LogStoreError &e) {
        EXPECT_EQ(e.kind(), LogErrorKind::Format);
        EXPECT_EQ(e.osError(), 0);
    }
    std::remove(path.c_str());
}

/**
 * Run @p body in a child process and return its exit code, or -1 when
 * it died of a signal or was still running after @p seconds (it is then
 * killed): a reader that crashes or blocks fails the test instead of
 * killing or hanging the test binary.
 */
int
exitCodeWithin(double seconds, const std::function<int()> &body)
{
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0)
        return -2;
    if (pid == 0)
        ::_exit(body());
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(seconds);
    int status = 0;
    while (::waitpid(pid, &status, WNOHANG) == 0) {
        if (std::chrono::steady_clock::now() > deadline) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, &status, 0);
            return -1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/**
 * 0 when @p call throws a LogStoreError of kind Io whose message holds
 * @p text; otherwise a nonzero code, with what was thrown on stderr.
 */
int
throwsIo(const std::string &text, const std::function<void()> &call)
{
    try {
        call();
    } catch (const LogStoreError &e) {
        if (e.kind() == LogErrorKind::Io &&
            std::string(e.what()).find(text) != std::string::npos)
            return 0;
        std::fprintf(stderr, "unexpected LogStoreError: %s\n", e.what());
        return 2;
    }
    std::fprintf(stderr, "no LogStoreError thrown\n");
    return 1;
}

TEST(LogStoreIo, FileTruncatedWhileOpenThrowsTyped)
{
    // The file shrinks to one page after a reader opened it: every
    // entry point that reads past the new end throws kind Io. A reader
    // that mapped the file would die of SIGBUS on the next page.
    const std::string path = tempPath("shrunk");
    writeWithChunkTarget(path, makeFullLogs(4, 2000), 1024);
    const auto pristine = slurp(path);
    ASSERT_GT(pristine.size(), 16u * 4096);

    const std::pair<const char *, std::function<void(LogReader &)>>
        calls[] = {
            {"readAll", [](LogReader &r) { r.readAll(); }},
            {"walkIntervals",
             [](LogReader &r) {
                 r.walkIntervals([](rr::sim::CoreId, const IntervalRecord &,
                                    const LogReader::ChunkView &) {
                     return true;
                 });
             }},
            {"verify", [](LogReader &r) { r.verify(); }},
            {"recoverPrefix", [](LogReader &r) { r.recoverPrefix(); }},
        };
    for (const auto &[name, call] : calls) {
        spew(path, pristine);
        EXPECT_EQ(exitCodeWithin(30.0,
                                 [&, &call = call] {
                                     LogReader reader(path);
                                     if (::truncate(path.c_str(), 4096) != 0)
                                         return 3;
                                     return throwsIo(
                                         "the file shrank while open",
                                         [&] { call(reader); });
                                 }),
                  0)
            << name;
    }
    std::remove(path.c_str());
}

TEST(LogStoreIo, NonRegularPathsAreRefusedWithoutBlocking)
{
    // A FIFO with no writer must not block the open; it, and a
    // directory, are refused as I/O errors. An empty regular file is
    // still a corrupt one.
    const std::string fifo = tempPath("fifo");
    std::remove(fifo.c_str());
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);
    EXPECT_EQ(exitCodeWithin(30.0,
                             [&] {
                                 return throwsIo("not a regular file",
                                                 [&] { LogReader r(fifo); });
                             }),
              0);
    std::remove(fifo.c_str());
    EXPECT_EQ(throwsIo("not a regular file",
                       [] { LogReader r(::testing::TempDir()); }),
              0);

    const std::string empty = tempPath("empty");
    spew(empty, {});
    try {
        LogReader reader(empty);
        FAIL() << "expected LogStoreError";
    } catch (const LogStoreError &e) {
        EXPECT_EQ(e.kind(), LogErrorKind::Format);
        EXPECT_STREQ(e.what(),
                     "file shorter than the 24-byte header (file offset 0)");
    }
    std::remove(empty.c_str());
}

} // namespace
