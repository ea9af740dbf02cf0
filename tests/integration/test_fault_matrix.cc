/**
 * @file
 * Fault-matrix sweep: record a kernel through the streaming LogWriter
 * while a seeded FaultInjector perturbs each layer in turn, then hold
 * the recording to the robustness contract:
 *
 *  - a zero-fault plan leaves the .rrlog byte-identical to a run with
 *    no injector installed at all;
 *  - transient I/O faults (short writes, EIO, ENOSPC, bounded fsync
 *    failures) are absorbed by retry/resume and are invisible in the
 *    final bytes;
 *  - Snoop Table saturation downgrades Opt to Base (whether each
 *    recorder-observation fault yields a sound file that replays
 *    bit-exact or fails typed is checked by the RecorderFaults cases
 *    of test_replay_check.cc);
 *  - a persistent I/O fault surfaces as LogStoreError kind Io with the
 *    errno attached, and never publishes a file under the final name;
 *  - an injected crash leaves a torn .tmp from which recoverPrefix()
 *    salvages a per-core interval prefix of the clean recording, and
 *    the shipped replay (svc::replayAndVerify with allowPartial)
 *    replays its consistent cut divergence-free;
 *  - a torn recording with reordered stores, cut at every chunk
 *    boundary, replays its salvaged prefix exactly as the full
 *    recording replays when stopped at the same cut;
 *  - a log-size budget produces a partial-flagged, bounded, replayable
 *    prefix instead of an unbounded file or an abort.
 *
 * Recordings run through the shared pipeline (svc::record).
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <fstream>

#include <unistd.h>
#include <memory>
#include <string>
#include <vector>

#include "rnr/format.hh"
#include "rnr/logstore.hh"
#include "rnr/patcher.hh"
#include "rnr/replayer.hh"
#include "sim/faultinject.hh"
#include "svc/pipeline.hh"

namespace
{

using namespace rr;

constexpr std::uint32_t kCores = 2;
constexpr const char *kKernel = "fft";
constexpr std::size_t kChunkBytes = 256; // many small chunks

/** Uninstalls any injector this test installed, even on failure. */
struct InjectorGuard
{
    explicit InjectorGuard(const std::string &spec)
    {
        if (!spec.empty())
            sim::FaultInjector::install(sim::FaultPlan::parse(spec));
    }
    ~InjectorGuard() { sim::FaultInjector::uninstall(); }
};

struct Recorded
{
    machine::RecordingResult rec;
    std::unique_ptr<rnr::LogWriter> writer; ///< kept for its stats
};

/**
 * Record kKernel under whatever injector is currently installed,
 * streaming to @p path in kChunkBytes chunks.
 */
Recorded
recordKernel(const std::string &path, sim::RecorderMode mode,
             std::uint64_t scale = 1)
{
    svc::JobParams p;
    p.kernel = kKernel;
    p.cores = kCores;
    p.scale = scale;
    p.mode = mode;
    rnr::WriterOptions opts;
    opts.chunkTargetBytes = kChunkBytes;

    Recorded out;
    out.writer = std::make_unique<rnr::LogWriter>(
        path, svc::recordingMeta(p), opts);
    out.rec = svc::record(p, svc::CancelToken{}, out.writer.get()).rec;
    return out;
}

/** Replay @p path's consistent prefix the way `rrsim replay
 *  --allow-partial` does. */
svc::ReplayOutcome
replayPrefix(const std::string &path)
{
    svc::JobParams p;
    p.kind = svc::JobKind::Replay;
    p.file = path;
    p.allowPartial = true;
    return svc::replayAndVerify(p, svc::CancelToken{});
}

std::vector<std::uint8_t>
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << path;
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

bool
fileExists(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return in.is_open();
}

std::string
tmpPathFor(const std::string &name)
{
    return ::testing::TempDir() + "rr_fault_matrix_" + name + ".rrlog";
}

TEST(FaultMatrix, ZeroFaultPlanIsByteIdenticalToNoInjector)
{
    const std::string clean_path = tmpPathFor("zero_clean");
    const std::string fault_path = tmpPathFor("zero_fault");
    {
        InjectorGuard guard("");
        recordKernel(clean_path, sim::RecorderMode::Opt);
    }
    {
        // Installed but inert: a seed alone arms no clause, and
        // zero-rate clauses never draw, so the recording cannot shift.
        InjectorGuard guard("seed=9");
        recordKernel(fault_path, sim::RecorderMode::Opt);
    }
    const auto clean = fileBytes(clean_path);
    const auto faulty = fileBytes(fault_path);
    ASSERT_FALSE(clean.empty());
    EXPECT_EQ(clean, faulty);
    std::remove(clean_path.c_str());
    std::remove(fault_path.c_str());
}

class TransientIoFaults : public ::testing::TestWithParam<const char *>
{
};

TEST_P(TransientIoFaults, AreAbsorbedAndInvisibleInTheFinalBytes)
{
    // Per-process suffix: the parameterized instances run concurrently
    // under `ctest -j` and must not clobber each other's files.
    const std::string uniq = std::to_string(
        static_cast<unsigned long>(::getpid()));
    const std::string clean_path = tmpPathFor("io_clean_" + uniq);
    const std::string fault_path = tmpPathFor("io_fault_" + uniq);
    {
        InjectorGuard guard("");
        recordKernel(clean_path, sim::RecorderMode::Opt);
    }
    std::uint64_t injected = 0;
    {
        InjectorGuard guard(GetParam());
        Recorded r = recordKernel(fault_path, sim::RecorderMode::Opt);
        const sim::StatSet &fs = sim::FaultInjector::get()->stats();
        injected = fs.counterValue("short_writes") +
                   fs.counterValue("io_errors") +
                   fs.counterValue("enospc_errors") +
                   fs.counterValue("sync_failures");
        // The writer retried/resumed (visible in its own counters).
        EXPECT_EQ(r.writer->stats().counterValue("io_short_writes") +
                      r.writer->stats().counterValue("io_retries") +
                      r.writer->stats().counterValue("sync_retries"),
                  injected);
    }
    // The plan must have actually fired for this sweep to mean much.
    EXPECT_GT(injected, 0u) << GetParam();
    EXPECT_EQ(fileBytes(clean_path), fileBytes(fault_path))
        << GetParam();
    std::remove(clean_path.c_str());
    std::remove(fault_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Plans, TransientIoFaults,
    ::testing::Values("short-write=0.5", "io-error=0.3", "enospc=0.25",
                      "fsync-fail=3",
                      "short-write=0.3,io-error=0.1,enospc=0.05,"
                      "fsync-fail=1"),
    [](const auto &info) {
        return "plan" + std::to_string(info.index);
    });

TEST(FaultMatrix, SnoopTableSaturationDowngradesOptToBase)
{
    const std::string path = tmpPathFor("downgrade");
    {
        InjectorGuard guard("st-saturate=1");
        recordKernel(path, sim::RecorderMode::Opt);
        // Every core's recorder saturates immediately and must fall
        // back to Base logging (counted per recorder).
        EXPECT_GE(sim::FaultInjector::get()->stats().counterValue(
                      "opt_base_downgrades"),
                  1u);
    }
    std::remove(path.c_str());
}

TEST(FaultMatrix, PersistentSyncFailureIsATypedIoError)
{
    const std::string path = tmpPathFor("eio");
    InjectorGuard guard("fsync-fail=1000000");
    try {
        recordKernel(path, sim::RecorderMode::Opt);
        FAIL() << "expected LogStoreError";
    } catch (const rnr::LogStoreError &e) {
        EXPECT_EQ(e.kind(), rnr::LogErrorKind::Io);
        EXPECT_EQ(e.osError(), EIO);
        // The message names the failing site and the retry budget.
        EXPECT_NE(std::string(e.what()).find("after"),
                  std::string::npos);
    }
    // The fault can never publish a file under the final name.
    EXPECT_FALSE(fileExists(path));
    std::remove((path + ".tmp").c_str());
}

TEST(FaultMatrix, CrashTornFileSalvagesToAReplayableCleanPrefix)
{
    const std::string clean_path = tmpPathFor("crash_clean");
    const std::string crash_path = tmpPathFor("crash");

    constexpr std::uint64_t kScale = 16; // enough data to tear mid-file
    Recorded clean = [&] {
        InjectorGuard guard("");
        return recordKernel(clean_path, sim::RecorderMode::Opt, kScale);
    }();
    const std::uint64_t clean_bytes = fileBytes(clean_path).size();
    ASSERT_GT(clean_bytes, 4 * kChunkBytes)
        << "kernel too small to tear meaningfully";

    // Tear the identical recording halfway through.
    const std::string spec =
        "crash-at=" + std::to_string(clean_bytes / 2);
    bool crashed = false;
    {
        InjectorGuard guard(spec);
        try {
            recordKernel(crash_path, sim::RecorderMode::Opt, kScale);
        } catch (const rnr::LogStoreError &e) {
            crashed = true;
            EXPECT_EQ(e.kind(), rnr::LogErrorKind::Crash);
            EXPECT_NE(std::string(e.what()).find("injected crash"),
                      std::string::npos);
        }
    }
    ASSERT_TRUE(crashed);
    // Only the torn .tmp exists; the final name was never published.
    EXPECT_FALSE(fileExists(crash_path));
    const std::string torn = crash_path + ".tmp";
    ASSERT_TRUE(fileExists(torn));

    rnr::LogReader reader(torn);
    rnr::RecoveryResult rec = reader.recoverPrefix();
    EXPECT_FALSE(rec.cleanEnd);
    EXPECT_GE(rec.salvagedChunks, 1u);
    EXPECT_GT(rec.salvagedIntervals, 0u);
    ASSERT_EQ(rec.logs.size(), kCores);

    // Each salvaged core log is a *prefix* of the clean recording —
    // every salvaged interval is known-good, none is invented.
    for (sim::CoreId c = 0; c < kCores; ++c) {
        const auto &salvaged = rec.logs[c].intervals;
        const auto &full = clean.rec.logs[0][c].intervals;
        ASSERT_LE(salvaged.size(), full.size()) << "core " << c;
        for (std::size_t i = 0; i < salvaged.size(); ++i) {
            // The termination cycle is reporting-only and not
            // serialized, so a salvaged interval carries cycle 0.
            rnr::IntervalRecord expect = full[i];
            expect.cycle = 0;
            EXPECT_EQ(salvaged[i], expect)
                << "core " << c << " interval " << i;
        }
    }

    // After the consistent cut the prefix replays divergence-free.
    const svc::ReplayOutcome out = replayPrefix(torn);
    EXPECT_TRUE(out.verdict == svc::Verdict::PartialOk);
    EXPECT_GT(out.salvage.cut, 0u);
    EXPECT_GT(out.result.instructions, 0u);
    EXPECT_LT(out.result.instructions, clean.rec.totalInstructions);

    std::remove(clean_path.c_str());
    std::remove(torn.c_str());
}

TEST(FaultMatrix, SalvagedPrefixesKeepTheirPatchedStores)
{
    // radix under Base logs reordered stores and atomics, each counted
    // in one interval and patched back into an earlier one.
    const std::string path = tmpPathFor("reordered");
    svc::JobParams p;
    p.kernel = "radix";
    p.cores = kCores;
    p.scale = 16;
    p.mode = sim::RecorderMode::Base;
    rnr::WriterOptions opts;
    opts.chunkTargetBytes = kChunkBytes;
    const svc::Recording run = [&] {
        rnr::LogWriter writer(path, svc::recordingMeta(p), opts);
        return svc::record(p, svc::CancelToken{}, &writer);
    }();
    ASSERT_GT(run.stats.reorderedStores + run.stats.reorderedAtomics, 0u);

    // Tear the file after every data chunk, replay the salvaged prefix
    // as `rrsim replay --allow-partial` does (trim at the cut, then
    // patch), and compare it with the same salvaged logs patched first
    // and then trimmed at the same cut. The two differ when the cut
    // keeps a store's perform interval but trims the salvaged interval
    // counting it. (A store counted in a core's lost tail cannot be
    // seen at all; see the salvage item of ROADMAP.md.)
    const std::vector<std::uint8_t> bytes = fileBytes(path);
    const std::string torn = tmpPathFor("reordered_torn");
    std::uint64_t off = rnr::fmt::kFileHeaderBytes;
    int tears = 0;
    while (off + rnr::fmt::kChunkHeaderBytes <= bytes.size()) {
        rnr::fmt::ChunkHeader h;
        ASSERT_TRUE(rnr::fmt::ChunkHeader::decode(bytes.data() + off, h));
        off += rnr::fmt::kChunkHeaderBytes + h.payloadBytes();
        if (h.type != rnr::fmt::ChunkType::Data)
            continue;
        std::remove(torn.c_str());
        {
            std::ofstream out(torn, std::ios::binary);
            out.write(reinterpret_cast<const char *>(bytes.data()),
                      static_cast<std::streamsize>(off));
        }
        const svc::ReplayOutcome got = replayPrefix(torn);
        ++tears;
        ASSERT_TRUE(got.verdict == svc::Verdict::PartialOk)
            << "torn at byte " << off;

        std::vector<rnr::CoreLog> patched;
        for (auto &log : rnr::LogReader(torn).recoverPrefix().logs) {
            rnr::CoreLog &p = patched.emplace_back(rnr::patch(log));
            while (!p.intervals.empty() &&
                   p.intervals.back().timestamp > got.salvage.cut)
                p.intervals.pop_back();
        }
        const rnr::ReplayResult want =
            rnr::Replayer(run.workload.program, std::move(patched),
                          run.machine->initialMemory())
                .run();
        EXPECT_EQ(got.result.memory.fingerprint(),
                  want.memory.fingerprint())
            << "torn at byte " << off << ", cut " << got.salvage.cut;
        EXPECT_EQ(got.result.instructions, want.instructions)
            << "torn at byte " << off;
        EXPECT_EQ(got.result.loadHashes, want.loadHashes)
            << "torn at byte " << off;
    }
    EXPECT_GT(tears, 10);
    std::remove(path.c_str());
    std::remove(torn.c_str());
}

TEST(FaultMatrix, BudgetYieldsABoundedPartialReplayablePrefix)
{
    const std::string clean_path = tmpPathFor("budget_clean");
    const std::string budget_path = tmpPathFor("budget");

    Recorded clean = [&] {
        InjectorGuard guard("");
        return recordKernel(clean_path, sim::RecorderMode::Opt);
    }();
    const std::uint64_t clean_bytes = fileBytes(clean_path).size();
    const std::uint64_t budget = clean_bytes / 2;

    Recorded r = [&] {
        InjectorGuard guard("budget=" + std::to_string(budget));
        return recordKernel(budget_path, sim::RecorderMode::Opt);
    }();
    ASSERT_TRUE(r.writer->finished());
    EXPECT_GT(r.writer->stats().counterValue("intervals_dropped_budget"),
              0u);
    EXPECT_EQ(r.writer->stats().counterValue("budget_exceeded"), 1u);

    rnr::LogReader reader(budget_path);
    EXPECT_TRUE(reader.partial());
    EXPECT_TRUE(reader.verify().empty());

    // Bounded: the file keeps to the budget (plus the Summary + End
    // trailer slack the projection reserves).
    EXPECT_LE(fileBytes(budget_path).size(), budget + 1024);

    // And the kept prefix replays divergence-free after the cut.
    EXPECT_TRUE(reader.recoverPrefix().cleanEnd);
    const svc::ReplayOutcome out = replayPrefix(budget_path);
    EXPECT_TRUE(out.verdict == svc::Verdict::PartialOk);
    EXPECT_GT(out.result.instructions, 0u);

    std::remove(clean_path.c_str());
    std::remove(budget_path.c_str());
}

} // namespace
