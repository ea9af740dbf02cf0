#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "isa/assembler.hh"
#include "rnr/patcher.hh"
#include "rnr/replayer.hh"

namespace
{

using namespace rr;
using namespace rr::rnr;
using isa::Assembler;
using isa::Program;

/** One interval with the given entries and timestamp. */
IntervalRecord
interval(std::vector<LogEntry> entries, std::uint64_t ts)
{
    IntervalRecord iv;
    iv.entries = std::move(entries);
    iv.timestamp = ts;
    return iv;
}

TEST(Replayer, SingleCoreInorderBlocks)
{
    Assembler a;
    a.li(3, 0x1000);
    a.li(4, 5);
    a.st(4, 3, 0);
    a.ld(5, 3, 0);
    a.halt();
    Program p = a.assemble();

    std::vector<CoreLog> logs(1);
    logs[0].intervals.push_back(
        interval({LogEntry::inorderBlock(5)}, 1));

    Replayer rep(p, logs, mem::BackingStore{});
    auto res = rep.run();
    EXPECT_EQ(res.instructions, 5u);
    EXPECT_EQ(res.contexts[0].regs[5], 5u);
    EXPECT_EQ(res.memory.read64(0x1000), 5u);
    EXPECT_TRUE(res.contexts[0].halted);
    EXPECT_EQ(res.intervals, 1u);
}

TEST(Replayer, ReorderedLoadInjectsValue)
{
    Assembler a;
    a.li(3, 0x1000);
    a.ld(5, 3, 0); // memory holds 0; the log says the load saw 42
    a.halt();
    Program p = a.assemble();

    std::vector<CoreLog> logs(1);
    logs[0].intervals.push_back(interval(
        {LogEntry::inorderBlock(1), LogEntry::reorderedLoad(42),
         LogEntry::inorderBlock(1)},
        1));

    Replayer rep(p, logs, mem::BackingStore{});
    auto res = rep.run();
    EXPECT_EQ(res.contexts[0].regs[5], 42u);
    EXPECT_EQ(res.instructions, 3u);
}

TEST(Replayer, DummyStoreSkipsWithoutWriting)
{
    Assembler a;
    a.li(3, 0x1000);
    a.li(4, 7);
    a.st(4, 3, 0); // skipped: its effect happened in an earlier interval
    a.halt();
    Program p = a.assemble();

    std::vector<CoreLog> logs(1);
    logs[0].intervals.push_back(interval(
        {LogEntry::inorderBlock(2), LogEntry::dummyStore(),
         LogEntry::inorderBlock(1)},
        1));

    mem::BackingStore init;
    init.write64(0x1000, 99); // pre-existing value must survive
    Replayer rep(p, logs, std::move(init));
    auto res = rep.run();
    EXPECT_EQ(res.memory.read64(0x1000), 99u);
    EXPECT_TRUE(res.contexts[0].halted);
}

TEST(Replayer, PatchedStoreAppliesAtIntervalEnd)
{
    // Core 1 reads what core 0's patched store wrote, with the read's
    // interval ordered between core 0's two intervals.
    Assembler a;
    a.entry(0);
    a.li(3, 0x1000);
    a.li(4, 5);
    a.st(4, 3, 0);
    a.halt();
    a.entry(1);
    a.li(3, 0x1000);
    a.ld(5, 3, 0);
    a.halt();
    Program p = a.assemble();

    std::vector<CoreLog> logs(2);
    // Core 0, interval ts=1: first three instructions, store dummied,
    // patched store at end.
    logs[0].intervals.push_back(interval(
        {LogEntry::inorderBlock(2), LogEntry::patchedStore(0x1000, 5)},
        1));
    logs[0].intervals.push_back(interval(
        {LogEntry::dummyStore(), LogEntry::inorderBlock(1)}, 5));
    // Core 1 runs in between and must see the patched value.
    logs[1].intervals.push_back(
        interval({LogEntry::inorderBlock(3)}, 3));

    Replayer rep(p, logs, mem::BackingStore{});
    auto res = rep.run();
    EXPECT_EQ(res.contexts[1].regs[5], 5u);
}

TEST(Replayer, DummyAtomicInjectsOldValue)
{
    Assembler a;
    a.li(3, 0x1000);
    a.li(4, 10);
    a.fadd(5, 4, 3, 0);
    a.halt();
    Program p = a.assemble();

    std::vector<CoreLog> logs(1);
    logs[0].intervals.push_back(interval(
        {LogEntry::inorderBlock(2), LogEntry::patchedStore(0x1000, 17),
         LogEntry::dummyAtomic(7), LogEntry::inorderBlock(1)},
        1));

    Replayer rep(p, logs, mem::BackingStore{});
    auto res = rep.run();
    EXPECT_EQ(res.contexts[0].regs[5], 7u); // injected old value
    EXPECT_EQ(res.memory.read64(0x1000), 17u);
}

TEST(Replayer, IntervalOrderFollowsTimestamps)
{
    // Two cores increment the same word; the recorded order decides the
    // final value trace. Use in-order blocks and interleave intervals.
    Assembler a;
    a.entry(0);
    a.li(3, 0x1000);
    a.ld(4, 3, 0);
    a.addi(4, 4, 1);
    a.st(4, 3, 0);
    a.halt();
    a.entry(1);
    a.li(3, 0x1000);
    a.ld(4, 3, 0);
    a.slli(4, 4, 1);
    a.st(4, 3, 0);
    a.halt();
    Program p = a.assemble();

    // Order A: core0 (+1) then core1 (*2): (0+1)*2 = 2.
    std::vector<CoreLog> logs(2);
    logs[0].intervals.push_back(
        interval({LogEntry::inorderBlock(5)}, 1));
    logs[1].intervals.push_back(
        interval({LogEntry::inorderBlock(5)}, 2));
    {
        Replayer rep(p, logs, mem::BackingStore{});
        EXPECT_EQ(rep.run().memory.read64(0x1000), 2u);
    }
    // Order B: core1 first: 0*2 + 1 = 1.
    logs[0].intervals[0].timestamp = 2;
    logs[1].intervals[0].timestamp = 1;
    {
        Replayer rep(p, logs, mem::BackingStore{});
        EXPECT_EQ(rep.run().memory.read64(0x1000), 1u);
    }
}

TEST(Replayer, LoadHookSeesAllLoadValues)
{
    Assembler a;
    a.li(3, 0x1000);
    a.li(4, 5);
    a.st(4, 3, 0);
    a.ld(5, 3, 0);  // in-order: reads 5
    a.ld(6, 3, 8);  // reordered: injected 77
    a.fadd(7, 4, 3, 0); // in-order atomic: old value 5
    a.halt();
    Program p = a.assemble();

    std::vector<CoreLog> logs(1);
    logs[0].intervals.push_back(interval(
        {LogEntry::inorderBlock(4), LogEntry::reorderedLoad(77),
         LogEntry::inorderBlock(2)},
        1));

    Replayer rep(p, logs, mem::BackingStore{});
    std::vector<std::uint64_t> values;
    rep.setLoadHook([&](rr::sim::CoreId, std::uint64_t v) {
        values.push_back(v);
    });
    rep.run();
    ASSERT_EQ(values.size(), 3u);
    EXPECT_EQ(values[0], 5u);
    EXPECT_EQ(values[1], 77u);
    EXPECT_EQ(values[2], 5u);
}

TEST(Replayer, CostModelCountsComponents)
{
    Assembler a;
    a.li(3, 1);
    a.li(3, 2);
    a.halt();
    Program p = a.assemble();

    std::vector<CoreLog> logs(1);
    logs[0].intervals.push_back(
        interval({LogEntry::inorderBlock(3)}, 1));

    Replayer rep(p, logs, mem::BackingStore{});
    auto res = rep.run();
    // 3 instructions at IPC 2.5, rounded down; an interrupt, one
    // entry's decode and the interval hand-off.
    EXPECT_EQ(res.cost.userCycles, 1u);
    EXPECT_EQ(res.cost.osCycles, 150u + 20 + 400);
}

TEST(ReplayerDivergenceTest, UnpatchedLogRejected)
{
    Assembler a;
    a.halt();
    Program p = a.assemble();
    std::vector<CoreLog> logs(1);
    logs[0].intervals.push_back(interval(
        {LogEntry::reorderedStore(0x100, 1, 1)}, 1));
    try {
        Replayer(p, logs, mem::BackingStore{}).run();
        FAIL() << "expected ReplayDivergence";
    } catch (const ReplayDivergence &d) {
        const DivergenceReport &r = d.report();
        EXPECT_EQ(r.entry.kind, EntryKind::ReorderedStore);
        EXPECT_EQ(r.expected, "a patched log (ReorderedStore/Atomic "
                              "rewritten by rnr::patch)");
        EXPECT_EQ(r.actual, "an unpatched recording-side entry");
    }
}

TEST(ReplayerDivergenceTest, MisalignedReorderedLoadRejected)
{
    Assembler a;
    a.li(3, 1); // not a load
    a.halt();
    Program p = a.assemble();
    std::vector<CoreLog> logs(1);
    logs[0].intervals.push_back(
        interval({LogEntry::reorderedLoad(1)}, 1));
    Replayer rep(p, logs, mem::BackingStore{});
    try {
        rep.run();
        FAIL() << "expected ReplayDivergence";
    } catch (const ReplayDivergence &d) {
        const DivergenceReport &r = d.report();
        EXPECT_EQ(r.core, 0u);
        EXPECT_EQ(r.intervalIndex, 0u);
        EXPECT_EQ(r.entryIndex, 0u);
        EXPECT_EQ(r.entry.kind, EntryKind::ReorderedLoad);
        EXPECT_NE(r.expected.find("load"), std::string::npos);
        // The offending step itself is the newest ring-buffer entry.
        ASSERT_FALSE(r.recentSteps.empty());
        EXPECT_EQ(r.recentSteps.back().entry, 0u);
        EXPECT_NE(r.format().find("replay divergence at core 0"),
                  std::string::npos);
    }
}

/**
 * The divergence the engine reports for @p logs on 1, 2 and 4
 * workers. Fails the test when a run replays the logs without one.
 */
std::vector<DivergenceReport>
divergences(const Program &p, const std::vector<CoreLog> &logs)
{
    std::vector<DivergenceReport> out;
    for (const std::uint32_t workers : {1u, 2u, 4u}) {
        try {
            Replayer(p, logs, mem::BackingStore{}, {workers, {}}).run();
            ADD_FAILURE() << "expected ReplayDivergence on " << workers
                          << " workers";
        } catch (const ReplayDivergence &d) {
            out.push_back(d.report());
        }
    }
    return out;
}

TEST(ReplayerDivergenceTest, BlockPastAHaltNamesTheMissingInstructions)
{
    Assembler a;
    a.li(3, 1);
    a.li(4, 2);
    a.halt();
    a.nop();
    const Program p = a.assemble();
    std::vector<CoreLog> logs(1);
    logs[0].intervals.push_back(
        interval({LogEntry::inorderBlock(5)}, 1));
    for (const DivergenceReport &r : divergences(p, logs)) {
        EXPECT_EQ(r.intervalIndex, 0u);
        EXPECT_EQ(r.entryIndex, 0u);
        EXPECT_EQ(r.pc, 2u); // the Halt
        EXPECT_EQ(r.expected,
                  "2 more executable instructions (3 of 5 replayed)");
        EXPECT_EQ(r.actual, "core already halted");
    }
}

TEST(ReplayerDivergenceTest, BlockOnAHaltedCoreReplaysNone)
{
    Assembler a;
    a.nop();
    a.halt();
    const Program p = a.assemble();
    std::vector<CoreLog> logs(1);
    logs[0].intervals.push_back(
        interval({LogEntry::inorderBlock(2)}, 1));
    logs[0].intervals.push_back(
        interval({LogEntry::inorderBlock(3)}, 2));
    for (const DivergenceReport &r : divergences(p, logs)) {
        EXPECT_EQ(r.intervalIndex, 1u);
        EXPECT_EQ(r.entryIndex, 0u);
        EXPECT_EQ(r.pc, 1u);
        EXPECT_EQ(r.orderPosition, 1u);
        EXPECT_EQ(r.expected,
                  "3 more executable instructions (0 of 3 replayed)");
        EXPECT_EQ(r.actual, "core already halted");
    }
}

} // namespace
