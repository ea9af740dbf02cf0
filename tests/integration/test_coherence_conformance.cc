/**
 * @file
 * Coherence-backend conformance beyond replay (every kernel replays
 * bit-identically on both backends in the rows of
 * test_replay_check.cc): the directory's Opt log keeps its filtering
 * power, and the `.rrlog` coherence tag — the header flag mirrors the
 * meta chunk, the two backends hash to different configuration
 * fingerprints (so a wrong-machine reader refuses cleanly), and a
 * file whose flag and meta disagree is rejected.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "replay_check.hh"
#include "rnr/logstore.hh"

namespace
{

using namespace rr;

TEST(CoherenceConformance, DirectoryOptLogStaysCompact)
{
    // The TRAQ local-write-pending guard and the Section 4.3 bumps are
    // conservative: they may only add reordered entries. Guard against
    // a regression that degrades Opt toward Base wholesale — the
    // directory Opt log must stay well under the Base log for the same
    // execution.
    check::Scenario sc;
    sc.kernel = "radix";
    sc.cores = 8;
    sc.coherence = sim::CoherenceKind::Directory;
    sc.policies = {check::policy(sim::RecorderMode::Base, 0, true),
                   check::policy(sim::RecorderMode::Opt, 0, true)};
    const check::Recorded run = check::record(sc);
    const rnr::LogStats &base = run.stats[0];
    const rnr::LogStats &opt = run.stats[1];
    ASSERT_GT(base.reordered(), 0u);
    // Small runs leave real races a large share of the log, so the
    // margin is loose; a guard-gone regression logs ~100% of Base.
    EXPECT_LT(opt.reordered(), base.reordered() * 3 / 4)
        << "directory Opt logging lost its filtering power";
}

// --- .rrlog coherence tagging ---------------------------------------

rnr::RecordingMeta
tinyMeta(sim::CoherenceKind kind)
{
    rnr::RecordingMeta meta;
    meta.kernel = "fft";
    meta.cores = 2;
    meta.scale = 1;
    meta.intensity = workloads::WorkloadParams{}.intensity;
    meta.workloadSeed = workloads::WorkloadParams{}.seed;
    meta.machineSeed = sim::MachineConfig{}.seed;
    meta.mode = sim::RecorderMode::Opt;
    meta.coherence = kind;
    return meta;
}

TEST(CoherenceConformance, RrlogHeaderFlagMirrorsMetaTag)
{
    for (const sim::CoherenceKind kind :
         {sim::CoherenceKind::Snoopy, sim::CoherenceKind::Directory}) {
        SCOPED_TRACE(sim::toString(kind));
        const std::string path = ::testing::TempDir() +
                                 "rr_coherence_tag_" +
                                 sim::toString(kind) + ".rrlog";
        {
            rnr::LogWriter writer(path, tinyMeta(kind));
            writer.finish(rnr::RecordingSummary{});
        }
        rnr::LogReader reader(path);
        EXPECT_EQ(reader.directory(),
                  kind == sim::CoherenceKind::Directory);
        EXPECT_EQ(reader.meta().coherence, kind);
        std::remove(path.c_str());
    }
}

TEST(CoherenceConformance, CoherenceTagChangesConfigFingerprint)
{
    // A directory-tagged log presented to a snoopy-machine reader (or
    // vice versa) must look like a different machine, not a replayable
    // file: the coherence kind participates in the meta fingerprint.
    EXPECT_NE(tinyMeta(sim::CoherenceKind::Snoopy).fingerprint(),
              tinyMeta(sim::CoherenceKind::Directory).fingerprint());
}

TEST(CoherenceConformance, FlagMetaMismatchIsRejected)
{
    const std::string path =
        ::testing::TempDir() + "rr_coherence_mismatch.rrlog";
    {
        rnr::LogWriter writer(path,
                              tinyMeta(sim::CoherenceKind::Directory));
        writer.finish(rnr::RecordingSummary{});
    }

    // Strip the directory flag from the header (re-sealing the header
    // CRC so only the cross-check can object) and expect the reader to
    // refuse: the flags and the meta chunk now tell different stories.
    std::fstream f(path, std::ios::in | std::ios::out |
                             std::ios::binary);
    ASSERT_TRUE(f.good());
    std::vector<std::uint8_t> header(rnr::fmt::kFileHeaderBytes);
    f.read(reinterpret_cast<char *>(header.data()),
           static_cast<std::streamsize>(header.size()));
    header[rnr::fmt::kFlagsOffset] &=
        static_cast<std::uint8_t>(~rnr::fmt::kFlagDirectory);
    const std::uint32_t crc =
        rnr::fmt::crc32(header.data(), header.size() - 4);
    header[header.size() - 4] = static_cast<std::uint8_t>(crc);
    header[header.size() - 3] = static_cast<std::uint8_t>(crc >> 8);
    header[header.size() - 2] = static_cast<std::uint8_t>(crc >> 16);
    header[header.size() - 1] = static_cast<std::uint8_t>(crc >> 24);
    f.seekp(0);
    f.write(reinterpret_cast<const char *>(header.data()),
            static_cast<std::streamsize>(header.size()));
    f.close();

    try {
        rnr::LogReader reader(path);
        FAIL() << "mismatched coherence tag was accepted";
    } catch (const rnr::LogStoreError &e) {
        EXPECT_NE(std::string(e.what()).find("coherence tag mismatch"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

} // namespace
