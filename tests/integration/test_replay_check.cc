/**
 * @file
 * Every record-and-replay scenario of the integration suite. Each gtest
 * case below records one or two scenarios and runs check()
 * (replay_check.hh) on each: one recording under all of its policies,
 * then the file round trip, both replay engines and the shipped file
 * replay, per policy. A fixed list of generated seeds at the end adds
 * points of the configuration space that no named case covers.
 *
 * Cases add assertions about the recording itself (an outcome a litmus
 * shape must show, a counter a stress case must move) through
 * Scenario::expect.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "isa/assembler.hh"
#include "replay_check.hh"
#include "rnr/parallel_schedule.hh"
#include "sim/rng.hh"
#include "workloads/kernels.hh"

namespace
{

using namespace rr;
using check::policy;
using check::Recorded;
using check::Scenario;
using isa::Assembler;
using isa::Program;
using sim::CoherenceKind;
using sim::RecorderMode;

/** @p s with every '-' replaced by '_', as gtest names allow. */
std::string
underscored(std::string s)
{
    for (char &c : s)
        if (c == '-')
            c = '_';
    return s;
}

Scenario
kernelRow(const std::string &kernel, std::uint32_t cores,
          std::vector<sim::RecorderConfig> policies = check::eightPolicies())
{
    Scenario sc;
    sc.name = underscored(kernel) + "_c" + std::to_string(cores);
    sc.kernel = kernel;
    sc.cores = cores;
    sc.policies = std::move(policies);
    return sc;
}

/** A scenario of an assembled @p program; @p label is the call that
 *  built it, for the repro line. */
Scenario
programRow(const std::string &name, const std::string &label,
           Program program, std::uint32_t cores,
           std::vector<sim::RecorderConfig> policies)
{
    Scenario sc;
    sc.name = name;
    sc.program = std::move(program);
    sc.programLabel = label;
    sc.cores = cores;
    sc.policies = std::move(policies);
    return sc;
}

std::uint64_t
edges(const Recorded &r, std::size_t pol)
{
    std::uint64_t n = 0;
    for (const auto &log : r.rec.logs[pol])
        for (const auto &iv : log.intervals)
            n += iv.predecessors.size();
    return n;
}

// --- Kernels ----------------------------------------------------------

std::string
kernelCaseName(const ::testing::TestParamInfo<std::string> &info)
{
    return underscored(info.param);
}

class CoherenceConformanceKernels
    : public ::testing::TestWithParam<std::string>
{
};

// Every kernel at 4 cores on both backends, under eight policies; every
// policy with edges must record some.
TEST_P(CoherenceConformanceKernels, BothBackendsReplayBitIdentically)
{
    for (const CoherenceKind kind :
         {CoherenceKind::Snoopy, CoherenceKind::Directory}) {
        Scenario sc = kernelRow(GetParam(), 4);
        sc.name += std::string("_") + sim::toString(kind);
        sc.coherence = kind;
        sc.expect = [](const Recorded &r) {
            for (std::size_t p = 0; p < r.rec.logs.size(); ++p) {
                if (r.machine->hub(0).recorder(p).config()
                        .recordDependencies) {
                    EXPECT_GT(edges(r, p), 0u) << "policy " << p;
                }
            }
        };
        check::check(sc);
    }
}

INSTANTIATE_TEST_SUITE_P(Kernels, CoherenceConformanceKernels,
                         ::testing::ValuesIn(workloads::kernelNames()),
                         kernelCaseName);

class RecordReplayCoreCounts : public ::testing::TestWithParam<int>
{
};

// 4 cores is the kernel cases' count.
TEST_P(RecordReplayCoreCounts, FftAndWaterScaleWithCores)
{
    const auto cores = static_cast<std::uint32_t>(GetParam());
    check::check(kernelRow("fft", cores));
    check::check(kernelRow("water-nsq", cores));
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, RecordReplayCoreCounts,
                         ::testing::Values(1, 2, 8, 16));

// The directory's sparse-snoop regime: wide sharer sets, banked grants
// and directory entry churn.
TEST(CoherenceConformance, DirectoryScalesTo32And64Cores)
{
    for (const std::uint32_t cores : {32u, 64u}) {
        Scenario sc =
            kernelRow("fft", cores, {policy(RecorderMode::Opt, 0, true)});
        sc.name += "_directory";
        sc.coherence = CoherenceKind::Directory;
        sc.jobs = 8;
        check::check(sc);
    }
}

TEST(RecordReplay, LargerScaleStillDeterministic)
{
    Scenario sc = kernelRow("fft", 8);
    sc.name += "_scale4";
    sc.scale = 4;
    check::check(sc);
}

/**
 * cholesky on 4 cores under workload seed @p seed. Small interval caps
 * create replay parallelism (why Karma and Cyrus bound their chunks):
 * the modelled schedule of the 512-cap log must beat sequential replay.
 */
Scenario
cholesky(std::uint64_t seed)
{
    Scenario sc = kernelRow("cholesky", 4,
                            {policy(RecorderMode::Opt, 0),
                             policy(RecorderMode::Opt, 512, true)});
    sc.name += "_seed" + std::to_string(seed);
    sc.workloadSeed = seed;
    sc.expect = [](const Recorded &r) {
        const auto s = rnr::buildParallelSchedule(check::patchedLogs(r, 1));
        EXPECT_GT(s.speedup(), 1.3) << "expected usable parallelism";
        EXPECT_LE(s.speedup(), 4.0) << "cannot beat the core count";
    };
    return sc;
}

class RecordReplaySeeds : public ::testing::TestWithParam<int>
{
};

TEST_P(RecordReplaySeeds, CholeskySeedSweep)
{
    check::check(cholesky(1000 + GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecordReplaySeeds, ::testing::Range(0, 6));

TEST(ParallelReplay, SpeedupIsAvailableWithSmallIntervals)
{
    check::check(cholesky(workloads::WorkloadParams{}.seed));
}

/** @p kernel on 8 cores, Opt/512 with edges, replayed on 8 workers. */
Scenario
eightCoresSmallIntervals(const std::string &kernel)
{
    Scenario sc = kernelRow(kernel, 8, {policy(RecorderMode::Opt, 512, true)});
    sc.name += "_cap512";
    sc.jobs = 8;
    return sc;
}

TEST(ParallelReplay, EightCoresSmallIntervals)
{
    check::check(eightCoresSmallIntervals("fft"));
}

TEST(Replayer, EightCoresSmallIntervals)
{
    check::check(eightCoresSmallIntervals("ocean"));
}

// A 64-instruction cap: many short intervals and many cross-interval
// stores to patch.
TEST(RecordReplay, TinyIntervalCapStressesPatching)
{
    Scenario sc = kernelRow("radix", 4, {policy(RecorderMode::Base, 64)});
    sc.name += "_base_cap64";
    sc.expect = [](const Recorded &r) {
        EXPECT_GT(r.stats[0].reordered(), 0u);
    };
    check::check(sc);
}

// An 8-entry TRAQ stalls dispatch constantly.
TEST(RecordReplay, TinyTraqStressesBackPressure)
{
    Scenario sc = kernelRow("lu", 2, {policy(RecorderMode::Opt, 0)});
    sc.name += "_traq8";
    sc.policies[0].traqEntries = 8;
    sc.expect = [](const Recorded &r) {
        EXPECT_GT(
            r.machine->core(0).stats().counterValue("traq_full_stalls"),
            0u);
    };
    check::check(sc);
}

// Section 4.3: under directory coherence a dirty eviction costs the core
// its snoop visibility of the line, and Opt answers with a conservative
// Snoop Table bump. radix at scale 8 evicts dirty lines on both
// backends; only the directory may bump.
TEST(RecordReplay, DirectoryEvictionModeStaysCorrect)
{
    for (const CoherenceKind kind :
         {CoherenceKind::Directory, CoherenceKind::Snoopy}) {
        Scenario sc = kernelRow("radix", 4, {policy(RecorderMode::Opt, 0)});
        sc.name += std::string("_scale8_") + sim::toString(kind);
        sc.scale = 8;
        sc.coherence = kind;
        sc.expect = [kind](const Recorded &r) {
            std::uint64_t bumps = 0;
            for (sim::CoreId c = 0; c < r.rec.cores.size(); ++c)
                bumps += r.machine->hub(c).recorder(0).stats().counterValue(
                    "dirty_eviction_bumps");
            if (kind == CoherenceKind::Directory) {
                EXPECT_GT(bumps, 0u);
            } else {
                EXPECT_GT(r.machine->memorySystem().stats().counterValue(
                              "l1_evictions"),
                          0u);
                EXPECT_EQ(bumps, 0u);
            }
        };
        check::check(sc);
    }
}

// --- Racing random programs -------------------------------------------
// Every core hammers one 16-word array: only real races reach the
// reordered-load and patched-store paths.

class RandomProgramRace : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomProgramRace, RacingThreadsRecordAndReplayExactly)
{
    const int seed = 2000 + GetParam();
    check::check(programRow(
        "race" + std::to_string(GetParam()),
        "randomProgram(" + std::to_string(seed) + ", true)",
        check::randomProgram(seed, true), 4,
        {policy(RecorderMode::Base, 128), policy(RecorderMode::Opt, 0),
         policy(RecorderMode::Base, 128, true),
         policy(RecorderMode::Opt, 0, true)}));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramRace, ::testing::Range(0, 10));

// --- Litmus shapes ----------------------------------------------------
// The machine shows relaxed-consistency outcomes (what SC/TSO recorders
// cannot capture), fences restore ordering, and every execution records
// and replays exactly.

constexpr sim::Addr kX = 0x50000; // separate lines
constexpr sim::Addr kY = 0x50040;
constexpr sim::Addr kOut = 0x50080;

/** Base and Opt, INF, without and with edges. */
std::vector<sim::RecorderConfig>
litmusPolicies()
{
    return {policy(RecorderMode::Base, 0), policy(RecorderMode::Opt, 0),
            policy(RecorderMode::Base, 0, true),
            policy(RecorderMode::Opt, 0, true)};
}

/**
 * Message passing (MP): T0 stores data then flag; T1 spins on the flag
 * and reads data into r5.
 */
Program
mp(bool fenced)
{
    Assembler a;
    a.entry(0);
    a.li(3, kX);
    a.li(4, 42);
    a.st(4, 3, 0); // data
    if (fenced)
        a.fence();
    a.li(3, kY);
    a.li(4, 1);
    a.st(4, 3, 0); // flag
    a.halt();
    a.entry(1);
    a.li(3, kY);
    a.label("spin");
    a.ld(4, 3, 0);
    a.beq(4, 0, "spin");
    a.li(3, kX);
    a.ld(5, 3, 0);
    a.halt();
    return a.assemble();
}

/**
 * Store buffering (SB): T0: x=1; r=y. T1: y=1; r=x. The results land at
 * kOut and kOut+8. Under RC both loads may bypass the buffered stores
 * and read 0, the outcome SC/TSO recorders cannot produce or capture.
 */
Program
sb(bool fenced)
{
    Assembler a;
    a.entry(0);
    a.li(3, kX);
    a.li(4, kY);
    a.li(5, 1);
    a.st(5, 3, 0); // x = 1
    if (fenced)
        a.fence();
    a.ld(6, 4, 0); // r = y
    a.li(7, kOut);
    a.st(6, 7, 0);
    a.halt();
    a.entry(1);
    a.li(3, kY);
    a.li(4, kX);
    a.li(5, 1);
    a.st(5, 3, 0); // y = 1
    if (fenced)
        a.fence();
    a.ld(6, 4, 0); // r = x
    a.li(7, kOut);
    a.st(6, 7, 8);
    a.halt();
    return a.assemble();
}

/**
 * Coherence (CoRR): T0 writes x = 1, 2, 3, ...; T1 reads x twice per
 * iteration and sets r8 if the second read is older than the first.
 */
Program
corr()
{
    Assembler a;
    a.entry(0);
    a.li(3, kX);
    a.li(4, 1);
    a.label("wloop");
    a.st(4, 3, 0);
    a.addi(4, 4, 1);
    a.li(5, 200);
    a.blt(4, 5, "wloop");
    a.halt();
    a.entry(1);
    a.li(3, kX);
    a.li(8, 0);
    a.li(9, 100);
    a.label("rloop");
    a.ld(5, 3, 0);
    a.ld(6, 3, 0);
    a.bge(6, 5, "mono");
    a.li(8, 1);
    a.label("mono");
    a.addi(9, 9, -1);
    a.bne(9, 0, "rloop");
    a.halt();
    return a.assemble();
}

/** Every core fetch-adds 1 to x fifty times. */
Program
fetchAdd()
{
    Assembler a;
    a.li(29, 1);
    a.li(3, kX);
    a.li(4, 50);
    a.label("loop");
    a.fadd(5, 29, 3, 0);
    a.addi(4, 4, -1);
    a.bne(4, 0, "loop");
    a.halt();
    return a.assemble();
}

std::uint64_t
finalReg(const Recorded &r, sim::CoreId core, int reg)
{
    return r.rec.cores[core].finalRegs[reg];
}

std::uint64_t
finalWord(const Recorded &r, sim::Addr addr)
{
    return r.machine->memory().read64(addr);
}

/** Check @p program on @p cores cores under the litmus policies. */
void
checkLitmus(const std::string &name, const std::string &label,
            Program program, std::uint32_t cores,
            std::function<void(const Recorded &)> expect)
{
    Scenario sc = programRow("litmus_" + name, label, std::move(program),
                             cores, litmusPolicies());
    sc.expect = std::move(expect);
    check::check(sc);
}

TEST(Litmus, MessagePassingWithFenceNeverStale)
{
    checkLitmus("mp_fenced", "mp(true)", mp(true), 2,
                [](const Recorded &r) {
                    EXPECT_EQ(finalReg(r, 1, 5), 42u)
                        << "a fenced reader saw stale data";
                });
}

TEST(Litmus, MessagePassingRecordsExactlyEvenUnfenced)
{
    checkLitmus("mp", "mp(false)", mp(false), 2, [](const Recorded &r) {
        const std::uint64_t seen = finalReg(r, 1, 5);
        EXPECT_TRUE(seen == 42u || seen == 0u) << seen;
    });
}

TEST(Litmus, StoreBufferingRelaxedOutcomeOccursAndReplays)
{
    checkLitmus("sb", "sb(false)", sb(false), 2, [](const Recorded &r) {
        EXPECT_EQ(finalWord(r, kOut), 0u)
            << "expected the relaxed outcome on this machine";
        EXPECT_EQ(finalWord(r, kOut + 8), 0u)
            << "expected the relaxed outcome on this machine";
    });
}

TEST(Litmus, StoreBufferingFencedIsSequentiallyConsistent)
{
    checkLitmus("sb_fenced", "sb(true)", sb(true), 2,
                [](const Recorded &r) {
                    EXPECT_TRUE(finalWord(r, kOut) == 1u ||
                                finalWord(r, kOut + 8) == 1u)
                        << "with full fences at least one load sees the "
                           "other store";
                });
}

TEST(Litmus, CoherentReadReadNeverGoesBackwards)
{
    checkLitmus("corr", "corr()", corr(), 2, [](const Recorded &r) {
        EXPECT_EQ(finalReg(r, 1, 8), 0u) << "coherence violation";
    });
}

TEST(Litmus, FetchAddNeverLosesUpdates)
{
    checkLitmus("fetch_add", "fetchAdd()", fetchAdd(), 8,
                [](const Recorded &r) {
                    EXPECT_EQ(finalWord(r, kX), 8u * 50u)
                        << "an update was lost";
                });
}

// --- Recorder fault plans ---------------------------------------------
// A fault may change what is recorded; the file must still be sound and
// replay exactly or fail typed.

struct FaultPlan
{
    const char *name;
    const char *spec;
    RecorderMode mode;
};

constexpr FaultPlan kFaultPlans[] = {
    {"drop", "drop-snoop=0.02", RecorderMode::Opt},
    {"delay", "delay-snoop=0.05", RecorderMode::Opt},
    {"term", "force-term=0.005", RecorderMode::Base},
    {"saturate", "st-saturate=2", RecorderMode::Opt},
    {"alias", "alias-sig=4", RecorderMode::Opt},
    {"combo", "drop-snoop=0.02,delay-snoop=0.05,force-term=0.005",
     RecorderMode::Opt},
};

class RecorderFaults : public ::testing::TestWithParam<FaultPlan>
{
};

TEST_P(RecorderFaults, YieldSoundFilesThatReplayExactOrDivergeTyped)
{
    const FaultPlan &f = GetParam();
    Scenario sc = kernelRow("fft", 2, {policy(f.mode, 0)});
    sc.name += std::string("_fault_") + f.name;
    sc.faults = f.spec;
    check::check(sc);
}

INSTANTIATE_TEST_SUITE_P(Plans, RecorderFaults,
                         ::testing::ValuesIn(kFaultPlans),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });

// --- Generated scenarios ----------------------------------------------

/** Fixed: a seed that once failed stays on the list. */
constexpr std::uint64_t kSeeds[] = {1, 2, 3,  4,  5,  6,  7,  8,
                                    9, 10, 11, 12, 13, 14, 15, 16};

/**
 * A point of the configuration space picked by @p seed: 1-4 cores at
 * scale 1, either backend, a kernel (maybe under another workload
 * seed) or a racing random program, and either one to four mixed
 * policies or one recorder fault plan. Fault plans record without
 * edges, as the fault cases do: a lost snoop can lose an edge, and a
 * parallel replay across a missing edge can race.
 */
Scenario
generated(std::uint64_t seed)
{
    sim::Rng rng(seed);
    Scenario sc;
    sc.name = "seed" + std::to_string(seed);
    sc.cores = static_cast<std::uint32_t>(rng.range(1, 4));
    sc.coherence =
        rng.chance(1, 2) ? CoherenceKind::Directory : CoherenceKind::Snoopy;
    constexpr std::uint32_t kJobs[] = {1, 2, 3, 4, 8};
    sc.jobs = kJobs[rng.below(std::size(kJobs))];
    if (rng.chance(1, 4)) {
        const std::uint64_t program_seed = rng.below(1'000'000);
        sc.program = check::randomProgram(program_seed, true);
        sc.programLabel =
            "randomProgram(" + std::to_string(program_seed) + ", true)";
    } else {
        const auto &names = workloads::kernelNames();
        sc.kernel = names[rng.below(names.size())];
        if (rng.chance(1, 2))
            sc.workloadSeed = rng.below(1'000'000);
    }

    constexpr std::uint64_t kCaps[] = {0, 4096, 1024, 512, 128, 64};
    const auto cap = [&] { return kCaps[rng.below(std::size(kCaps))]; };
    sc.policies.clear();
    if (rng.chance(1, 4)) {
        const FaultPlan &f = kFaultPlans[rng.below(std::size(kFaultPlans))];
        sc.faults = f.spec;
        sc.policies.push_back(policy(f.mode, cap()));
    } else {
        for (std::uint64_t n = rng.range(1, 4); n > 0; --n) {
            const RecorderMode mode =
                rng.chance(1, 2) ? RecorderMode::Base : RecorderMode::Opt;
            sc.policies.push_back(policy(mode, cap(), rng.chance(1, 2)));
        }
    }
    return sc;
}

std::vector<Scenario>
seeds()
{
    std::vector<Scenario> out;
    for (const std::uint64_t seed : kSeeds)
        out.push_back(generated(seed));
    return out;
}

// --- The conflict check, against logs that lack their edges ----------

TEST(ConflictCheck, StrippedEdgesLeaveAnUnorderedPair)
{
    // check() runs checkConflicts() on every edge policy and expects
    // nothing unordered. The same logs without their cross-core edges
    // order only each core's own intervals, so the check must find
    // the same conflicts and call one of them unordered.
    Scenario sc = kernelRow("fft", 4, {policy(RecorderMode::Opt, 1024, true)});
    const Recorded r = check::record(sc);
    ASSERT_GT(edges(r, 0), 0u);
    std::vector<rnr::CoreLog> patched = check::patchedLogs(r, 0);
    const mem::BackingStore &initial = r.machine->initialMemory();

    const check::ConflictReport with =
        check::checkConflicts(r.program, patched, initial);
    EXPECT_GT(with.crossCoreConflicts, 0u);
    EXPECT_EQ(with.firstUnordered, "");

    for (std::size_t c = 0; c < patched.size(); ++c)
        for (rnr::IntervalRecord &iv : patched[c].intervals)
            std::erase_if(iv.predecessors, [&](const rnr::IntervalDep &d) {
                return d.core != c;
            });
    const check::ConflictReport without =
        check::checkConflicts(r.program, patched, initial);
    EXPECT_EQ(without.crossCoreConflicts, with.crossCoreConflicts);
    EXPECT_NE(without.firstUnordered.find(" unordered: core "),
              std::string::npos)
        << without.firstUnordered;
}

class ReplayCheck : public ::testing::TestWithParam<Scenario>
{
};

TEST_P(ReplayCheck, Holds)
{
    check::check(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayCheck, ::testing::ValuesIn(seeds()),
                         [](const ::testing::TestParamInfo<Scenario> &info) {
                             return info.param.name;
                         });

} // namespace
