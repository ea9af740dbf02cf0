#include <gtest/gtest.h>

#include "rnr/interval_recorder.hh"

namespace
{

using namespace rr::rnr;
using rr::mem::AccessKind;
using rr::mem::SnoopEvent;
using rr::mem::StampClock;
using rr::sim::RecorderConfig;
using rr::sim::RecorderMode;

class IntervalRecorderTest : public ::testing::Test
{
  protected:
    IntervalRecorder
    make(RecorderMode mode, std::uint64_t max_interval = 0)
    {
        RecorderConfig cfg;
        cfg.mode = mode;
        cfg.maxIntervalInstructions = max_interval;
        return IntervalRecorder(0, cfg, clock, "test");
    }

    SnoopEvent
    snoop(rr::sim::Addr line, bool is_write)
    {
        SnoopEvent ev{};
        ev.requester = 1;
        ev.lineAddr = rr::sim::lineAddr(line);
        ev.isWrite = is_write;
        ev.stamp = clock.next();
        return ev;
    }

    StampClock clock;
};

TEST_F(IntervalRecorderTest, SameIntervalAccessIsInOrder)
{
    auto r = make(RecorderMode::Base);
    auto ps = r.notePerform(AccessKind::Load, 0x1000);
    r.countMem(AccessKind::Load, 0x1000, 5, 0, 2, ps, 10);
    r.finish(20);
    const CoreLog &log = r.log();
    ASSERT_EQ(log.intervals.size(), 1u);
    ASSERT_EQ(log.intervals[0].entries.size(), 1u);
    // 2 non-mem + the load itself = block of 3.
    EXPECT_EQ(log.intervals[0].entries[0], LogEntry::inorderBlock(3));
}

TEST_F(IntervalRecorderTest, ConflictingWriteSnoopTerminatesInterval)
{
    auto r = make(RecorderMode::Base);
    auto ps = r.notePerform(AccessKind::Load, 0x1000);
    r.onSnoop(snoop(0x1000, true)); // write to a read line: conflict
    EXPECT_EQ(r.cisn(), 1u);
    r.countMem(AccessKind::Load, 0x1000, 5, 0, 0, ps, 10);
    r.finish(20);
    // Base: PISN != CISN -> reordered load with its value.
    const CoreLog &log = r.log();
    ASSERT_EQ(log.intervals.size(), 2u);
    EXPECT_EQ(log.intervals[1].entries[0], LogEntry::reorderedLoad(5));
}

TEST_F(IntervalRecorderTest, ReadSnoopConflictsOnlyWithWrites)
{
    auto r = make(RecorderMode::Base);
    r.notePerform(AccessKind::Load, 0x1000);
    r.onSnoop(snoop(0x1000, false)); // read-read: no dependence
    EXPECT_EQ(r.cisn(), 0u);
    r.notePerform(AccessKind::Store, 0x2000);
    r.onSnoop(snoop(0x2000, false)); // read of a written line: conflict
    EXPECT_EQ(r.cisn(), 1u);
}

TEST_F(IntervalRecorderTest, NonConflictingSnoopDoesNotTerminate)
{
    auto r = make(RecorderMode::Base);
    r.notePerform(AccessKind::Load, 0x1000);
    r.onSnoop(snoop(0x9000, true));
    EXPECT_EQ(r.cisn(), 0u);
}

TEST_F(IntervalRecorderTest, OptMovesUnobservedAccessAcrossIntervals)
{
    auto r = make(RecorderMode::Opt);
    auto ps = r.notePerform(AccessKind::Load, 0x1000);
    // Terminate the interval via an unrelated conflict.
    r.notePerform(AccessKind::Store, 0x5000);
    r.onSnoop(snoop(0x5000, true));
    ASSERT_EQ(r.cisn(), 1u);
    // The 0x1000 load crosses intervals but nobody touched its line.
    r.countMem(AccessKind::Load, 0x1000, 5, 0, 0, ps, 10);
    r.finish(20);
    const auto &stats = r.stats();
    EXPECT_EQ(stats.counterValue("moved_across_intervals"), 1u);
    EXPECT_EQ(stats.counterValue("reordered_loads"), 0u);
}

TEST_F(IntervalRecorderTest, OptDetectsObservedAccessAsReordered)
{
    auto r = make(RecorderMode::Opt);
    auto ps = r.notePerform(AccessKind::Load, 0x1000);
    r.onSnoop(snoop(0x1000, true)); // conflicting: also bumps the table
    r.countMem(AccessKind::Load, 0x1000, 5, 0, 0, ps, 10);
    r.finish(20);
    EXPECT_EQ(r.stats().counterValue("reordered_loads"), 1u);
}

TEST_F(IntervalRecorderTest, OptMovedAccessEntersCurrentSignature)
{
    auto r = make(RecorderMode::Opt);
    auto ps = r.notePerform(AccessKind::Store, 0x1000);
    r.notePerform(AccessKind::Store, 0x5000);
    r.onSnoop(snoop(0x5000, true)); // terminate interval 0
    r.countMem(AccessKind::Store, 0x1000, 0, 9, 0, ps, 10); // moved
    // The moved store's line is now in interval 1's write signature: a
    // read snoop of it must terminate interval 1.
    r.onSnoop(snoop(0x1000, false));
    EXPECT_EQ(r.cisn(), 2u);
}

TEST_F(IntervalRecorderTest, ReorderedStoreCarriesOffsetAndValues)
{
    auto r = make(RecorderMode::Base);
    auto ps = r.notePerform(AccessKind::Store, 0x1008);
    r.onSnoop(snoop(0x1008, true));
    r.onSnoop(snoop(0x1008, true)); // second interval boundary...
    // (no conflict in interval 1: signature was cleared) -> only 1 term
    EXPECT_EQ(r.cisn(), 1u);
    r.countMem(AccessKind::Store, 0x1008, 0, 42, 0, ps, 10);
    r.finish(20);
    const CoreLog &log = r.log();
    const LogEntry &e = log.intervals[1].entries[0];
    EXPECT_EQ(e.kind, EntryKind::ReorderedStore);
    EXPECT_EQ(e.addr, 0x1008u);
    EXPECT_EQ(e.storeValue, 42u);
    EXPECT_EQ(e.offset, 1u);
}

TEST_F(IntervalRecorderTest, ReorderedAtomicCarriesBothValues)
{
    auto r = make(RecorderMode::Base);
    auto ps = r.notePerform(AccessKind::Fadd, 0x2000);
    r.onSnoop(snoop(0x2000, true));
    r.countMem(AccessKind::Fadd, 0x2000, 7, 12, 0, ps, 10);
    r.finish(20);
    const LogEntry &e = r.log().intervals[1].entries[0];
    EXPECT_EQ(e.kind, EntryKind::ReorderedAtomic);
    EXPECT_EQ(e.loadValue, 7u);
    EXPECT_EQ(e.storeValue, 12u);
}

TEST_F(IntervalRecorderTest, AtomicPerformInsertsBothSignatures)
{
    auto r = make(RecorderMode::Base);
    r.notePerform(AccessKind::Xchg, 0x2000);
    r.onSnoop(snoop(0x2000, false)); // read snoop vs write signature
    EXPECT_EQ(r.cisn(), 1u);
}

TEST_F(IntervalRecorderTest, MaxIntervalSizeTerminates)
{
    auto r = make(RecorderMode::Base, 10);
    for (int i = 0; i < 3; ++i) {
        auto ps = r.notePerform(AccessKind::Load, 0x1000 + i * 64);
        r.countMem(AccessKind::Load, 0x1000 + i * 64, 0, 0, 3, ps, 5);
    }
    // 3 accesses x (3 nmi + 1) = 12 instructions >= 10 at the third.
    EXPECT_EQ(r.cisn(), 1u);
    r.finish(20);
    EXPECT_EQ(r.stats().counterValue("terminations_maxsize"), 1u);
}

TEST_F(IntervalRecorderTest, NmiCountsTowardMaxInterval)
{
    auto r = make(RecorderMode::Base, 30);
    r.countNmi(15, 1);
    EXPECT_EQ(r.cisn(), 0u);
    r.countNmi(15, 2);
    EXPECT_EQ(r.cisn(), 1u);
}

TEST_F(IntervalRecorderTest, BlocksSplitAroundReorderedAccesses)
{
    auto r = make(RecorderMode::Base);
    // Two in-order, one reordered, two in-order (paper Fig 4e/4f).
    auto ps1 = r.notePerform(AccessKind::Load, 0x100);
    r.countMem(AccessKind::Load, 0x100, 0, 0, 1, ps1, 1);
    auto ps2 = r.notePerform(AccessKind::Load, 0x200);
    r.onSnoop(snoop(0x200, true));
    r.countMem(AccessKind::Load, 0x200, 9, 0, 0, ps2, 2);
    auto ps3 = r.notePerform(AccessKind::Load, 0x300);
    r.countMem(AccessKind::Load, 0x300, 0, 0, 1, ps3, 3);
    r.finish(9);

    const CoreLog &log = r.log();
    // Interval 0: block(2). Interval 1: reordered load, block(2).
    ASSERT_EQ(log.intervals.size(), 2u);
    ASSERT_EQ(log.intervals[0].entries.size(), 1u);
    EXPECT_EQ(log.intervals[0].entries[0], LogEntry::inorderBlock(2));
    ASSERT_EQ(log.intervals[1].entries.size(), 2u);
    EXPECT_EQ(log.intervals[1].entries[0], LogEntry::reorderedLoad(9));
    EXPECT_EQ(log.intervals[1].entries[1], LogEntry::inorderBlock(2));
}

TEST_F(IntervalRecorderTest, TimestampsStrictlyIncrease)
{
    auto r = make(RecorderMode::Base, 2);
    for (int i = 0; i < 5; ++i)
        r.countNmi(2, i);
    r.finish(10);
    const CoreLog &log = r.log();
    ASSERT_GE(log.intervals.size(), 2u);
    for (std::size_t i = 1; i < log.intervals.size(); ++i)
        EXPECT_GT(log.intervals[i].timestamp,
                  log.intervals[i - 1].timestamp);
}

TEST_F(IntervalRecorderTest, EmptyFinishProducesEmptyLog)
{
    auto r = make(RecorderMode::Base);
    r.finish(5);
    EXPECT_TRUE(r.log().intervals.empty());
}

TEST_F(IntervalRecorderTest, DirectoryEvictionBumpForcesReorder)
{
    RecorderConfig cfg;
    cfg.mode = RecorderMode::Opt;
    IntervalRecorder r(0, cfg, clock, "dir");
    auto ps = r.notePerform(AccessKind::Load, 0x1000);
    // Terminate the interval (unrelated) so counting crosses intervals.
    r.notePerform(AccessKind::Load, 0x7000);
    r.onSnoop(snoop(0x7000, true));
    // The dirty eviction of the load's line removes snoop visibility;
    // the conservative bump must make the access count as reordered.
    r.onDirtyEviction(rr::sim::lineAddr(0x1000));
    r.countMem(AccessKind::Load, 0x1000, 3, 0, 0, ps, 8);
    r.finish(9);
    EXPECT_EQ(r.stats().counterValue("reordered_loads"), 1u);
}

TEST_F(IntervalRecorderTest, SnoopsAfterFinishAreIgnored)
{
    auto r = make(RecorderMode::Base);
    r.notePerform(AccessKind::Load, 0x1000);
    r.countNmi(1, 1);
    r.finish(2);
    const std::size_t n = r.log().intervals.size();
    r.onSnoop(snoop(0x1000, true));
    EXPECT_EQ(r.log().intervals.size(), n);
}

} // namespace
