/**
 * @file
 * Robustness fuzzing for the .rrlog ingestion path: thousands of
 * seeded random, truncated and bit-flipped inputs are fed to LogReader
 * (and to the fmt:: chunk-header / varint decoders directly) and the
 * only acceptable outcomes are success or a typed LogStoreError — no
 * crash, no assertion, no uncaught exception of any other kind. This
 * is the executable form of the reader's "never crash on a corrupt
 * file" contract.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "rnr/format.hh"
#include "rnr/logstore.hh"
#include "sim/rng.hh"

namespace
{

using namespace rr;
namespace fmt = rr::rnr::fmt;

/** A small but representative valid file: 2 cores, several chunks. */
std::vector<std::uint8_t>
buildValidFile()
{
    rnr::RecordingMeta meta;
    meta.kernel = "fft";
    meta.cores = 2;
    meta.scale = 1;

    std::ostringstream os(std::ios::binary);
    rnr::WriterOptions opts;
    opts.chunkTargetBytes = 128; // force several data chunks
    rnr::LogWriter writer(os, meta, opts);

    std::uint64_t ts = 1;
    for (std::uint32_t i = 0; i < 24; ++i) {
        rnr::IntervalRecord iv;
        iv.entries.push_back(rnr::LogEntry::inorderBlock(10 + i));
        iv.entries.push_back(rnr::LogEntry::reorderedLoad(0x1234 + i));
        iv.entries.push_back(
            rnr::LogEntry::reorderedStore(64 * i, 7 * i, i % 3));
        iv.cisn = 3 * (i + 1);
        iv.timestamp = ts;
        ts += 1 + (i % 5);
        writer.append(i % 2, iv);
    }

    rnr::RecordingSummary summary;
    summary.totalInstructions = 424242;
    summary.cores.resize(2);
    summary.cores[0].intervals = 12;
    summary.cores[1].intervals = 12;
    writer.finish(summary);

    const std::string s = os.str();
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

void
writeBytes(const std::string &path, const std::vector<std::uint8_t> &b)
{
    // Unlink before writing: truncating a non-empty file in place can
    // cost tens of milliseconds on a filesystem mounted with `discard`,
    // and the fuzz loops rewrite one path thousands of times.
    std::remove(path.c_str());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << path;
    out.write(reinterpret_cast<const char *>(b.data()),
              static_cast<std::streamsize>(b.size()));
    ASSERT_TRUE(out.good()) << path;
}

/**
 * Run the full reader surface over one input. Success and
 * LogStoreError are the only acceptable outcomes; any other exception
 * escapes and fails the test, any memory error is caught by the
 * sanitizer build.
 */
void
exerciseReader(const std::string &path)
{
    try {
        rnr::LogReader reader(path);
        // Once construction (header + meta validation) succeeds, the
        // tolerant walkers are contractually no-throw on damage.
        EXPECT_NO_THROW({
            auto issues = reader.verify();
            (void)issues;
        });
        EXPECT_NO_THROW({
            auto rec = reader.recoverPrefix();
            (void)rec;
        });
        // The throwing walkers must fail only with LogStoreError.
        try {
            reader.info();
            auto logs = reader.readAll();
            (void)logs;
            auto s = reader.summary();
            (void)s;
        } catch (const rnr::LogStoreError &) {
        }
    } catch (const rnr::LogStoreError &) {
    }
}

TEST(LogStoreFuzz, MutatedAndTruncatedFilesNeverCrashTheReader)
{
    const std::vector<std::uint8_t> base = buildValidFile();
    ASSERT_GT(base.size(), fmt::kFileHeaderBytes);
    const std::string path =
        ::testing::TempDir() + "rr_logstore_fuzz.rrlog";

    sim::Rng rng(0xf22u);
    constexpr int kIterations = 4000;
    for (int it = 0; it < kIterations; ++it) {
        std::vector<std::uint8_t> bytes = base;
        switch (it % 3) {
          case 0: { // truncate anywhere, header included
            bytes.resize(rng.below(base.size() + 1));
            break;
          }
          case 1: { // flip 1..8 random bytes
            const std::uint64_t flips = 1 + rng.below(8);
            for (std::uint64_t f = 0; f < flips; ++f)
                bytes[rng.below(bytes.size())] ^=
                    static_cast<std::uint8_t>(1 + rng.below(255));
            break;
          }
          default: { // truncate AND corrupt the surviving prefix
            bytes.resize(1 + rng.below(base.size()));
            const std::uint64_t flips = 1 + rng.below(4);
            for (std::uint64_t f = 0; f < flips; ++f)
                bytes[rng.below(bytes.size())] ^=
                    static_cast<std::uint8_t>(1 + rng.below(255));
            break;
          }
        }
        writeBytes(path, bytes);
        exerciseReader(path);
    }
    std::remove(path.c_str());
}

TEST(LogStoreFuzz, PureGarbageFilesNeverCrashTheReader)
{
    const std::string path =
        ::testing::TempDir() + "rr_logstore_fuzz_garbage.rrlog";
    sim::Rng rng(99);
    constexpr int kIterations = 3000;
    for (int it = 0; it < kIterations; ++it) {
        std::vector<std::uint8_t> bytes(rng.below(512));
        for (auto &b : bytes)
            b = static_cast<std::uint8_t>(rng.below(256));
        // A fraction keeps the magic so garbage reaches deeper layers.
        if (bytes.size() >= 4 && it % 2 == 0) {
            bytes[0] = 'R';
            bytes[1] = 'R';
            bytes[2] = 'L';
            bytes[3] = 'G';
        }
        writeBytes(path, bytes);
        exerciseReader(path);
    }
    std::remove(path.c_str());
}

TEST(LogStoreFuzz, ChunkHeaderDecodeRejectsGarbageWithoutCrashing)
{
    sim::Rng rng(7);
    std::uint64_t accepted = 0;
    for (int it = 0; it < 2000; ++it) {
        std::uint8_t raw[fmt::kChunkHeaderBytes];
        for (auto &b : raw)
            b = static_cast<std::uint8_t>(rng.below(256));
        fmt::ChunkHeader h;
        if (fmt::ChunkHeader::decode(raw, h)) {
            ++accepted;
            // Anything decode accepts must carry a defined chunk type.
            EXPECT_GE(static_cast<int>(h.type),
                      static_cast<int>(fmt::ChunkType::Meta));
            EXPECT_LE(static_cast<int>(h.type),
                      static_cast<int>(fmt::ChunkType::End));
        }
    }
    // The trailing CRC makes random acceptance essentially impossible.
    EXPECT_EQ(accepted, 0u);

    // A well-formed header round-trips...
    fmt::ChunkHeader good;
    good.type = fmt::ChunkType::Data;
    good.core = 1;
    good.seq = 42;
    good.payloadBits = 1000;
    good.payloadCrc = 0xabcdef01u;
    auto enc = good.encode();
    fmt::ChunkHeader out;
    ASSERT_TRUE(fmt::ChunkHeader::decode(enc.data(), out));
    EXPECT_EQ(out.seq, 42u);
    // ...and any single bit flip is detected by the header CRC.
    for (std::size_t byte = 0; byte < enc.size(); ++byte) {
        auto bad = enc;
        bad[byte] ^= 0x10;
        EXPECT_FALSE(fmt::ChunkHeader::decode(bad.data(), out))
            << "flip at byte " << byte;
    }
}

TEST(LogStoreFuzz, BoundedVarintDecodeNeverReadsPastTheLimit)
{
    sim::Rng rng(13);
    for (int it = 0; it < 4000; ++it) {
        std::vector<std::uint8_t> bytes(1 + rng.below(24));
        for (auto &b : bytes)
            b = static_cast<std::uint8_t>(rng.below(256));
        const std::uint64_t total_bits = bytes.size() * 8;
        const std::uint64_t limit = rng.below(total_bits + 1);
        rnr::BitReader r(bytes, total_bits);
        std::uint64_t value = 0;
        const bool ok = fmt::tryReadVarint(r, limit, value);
        // Bounded decode must respect the limit whether it succeeds or
        // gives up, and never touch bits past it.
        EXPECT_LE(r.position(), limit);
        if (ok) {
            // A successful decode re-encodes to the same group count.
            EXPECT_LE(fmt::varintBits(value), r.position());
        }
    }

    // Overlong encoding (10 groups, continuation still set) rejects.
    std::vector<std::uint8_t> overlong(fmt::kMaxVarintGroups + 2, 0x80);
    rnr::BitReader r(overlong, overlong.size() * 8);
    std::uint64_t value = 0;
    EXPECT_FALSE(
        fmt::tryReadVarint(r, overlong.size() * 8, value));

    // Exact-limit truncation: 7 value bits available but a group needs 8.
    std::vector<std::uint8_t> one = {0x01};
    rnr::BitReader r2(one, 8);
    EXPECT_FALSE(fmt::tryReadVarint(r2, 7, value));
    EXPECT_TRUE(fmt::tryReadVarint(r2, 8, value));
    EXPECT_EQ(value, 1u);
}

} // namespace
