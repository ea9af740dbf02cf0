#include <gtest/gtest.h>

#include "rnr/patcher.hh"

namespace
{

using namespace rr::rnr;

TEST(Patcher, MovesStoreToPerformInterval)
{
    CoreLog log;
    log.intervals.resize(3);
    log.intervals[0].entries.push_back(LogEntry::inorderBlock(4));
    log.intervals[2].entries.push_back(
        LogEntry::reorderedStore(0x100, 9, 2));
    log.intervals[2].entries.push_back(LogEntry::inorderBlock(1));

    const CoreLog out = patch(log);
    // The store's memory effect lands at the END of interval 0.
    ASSERT_EQ(out.intervals[0].entries.size(), 2u);
    EXPECT_EQ(out.intervals[0].entries[1],
              LogEntry::patchedStore(0x100, 9));
    // A dummy remains at the counting site.
    EXPECT_EQ(out.intervals[2].entries[0], LogEntry::dummyStore());
    EXPECT_EQ(out.intervals[2].entries[1], LogEntry::inorderBlock(1));
}

TEST(Patcher, AtomicSplitsIntoPatchedStoreAndDummyAtomic)
{
    CoreLog log;
    log.intervals.resize(2);
    log.intervals[1].entries.push_back(
        LogEntry::reorderedAtomic(0x200, 11, 22, 1));
    const CoreLog out = patch(log);
    ASSERT_EQ(out.intervals[0].entries.size(), 1u);
    EXPECT_EQ(out.intervals[0].entries[0],
              LogEntry::patchedStore(0x200, 22)); // the NEW value
    EXPECT_EQ(out.intervals[1].entries[0], LogEntry::dummyAtomic(11));
}

TEST(Patcher, MultipleStoresKeepCountingOrder)
{
    CoreLog log;
    log.intervals.resize(3);
    log.intervals[1].entries.push_back(
        LogEntry::reorderedStore(0x100, 1, 1));
    log.intervals[2].entries.push_back(
        LogEntry::reorderedStore(0x100, 2, 2));
    const CoreLog out = patch(log);
    // Both patched to interval 0, in counting (program) order.
    ASSERT_EQ(out.intervals[0].entries.size(), 2u);
    EXPECT_EQ(out.intervals[0].entries[0].storeValue, 1u);
    EXPECT_EQ(out.intervals[0].entries[1].storeValue, 2u);
}

TEST(Patcher, DoesNotTouchLoadsOrBlocks)
{
    CoreLog log;
    log.intervals.resize(2);
    log.intervals[0].entries.push_back(LogEntry::inorderBlock(9));
    log.intervals[1].entries.push_back(LogEntry::reorderedLoad(5));
    const CoreLog out = patch(log);
    EXPECT_EQ(out.intervals[0].entries, log.intervals[0].entries);
    EXPECT_EQ(out.intervals[1].entries, log.intervals[1].entries);
}

TEST(Patcher, PreservesFrames)
{
    CoreLog log;
    log.intervals.resize(2);
    log.intervals[0].cisn = 0;
    log.intervals[0].timestamp = 10;
    log.intervals[1].cisn = 1;
    log.intervals[1].timestamp = 20;
    log.intervals[1].entries.push_back(
        LogEntry::reorderedStore(0x100, 1, 1));
    const CoreLog out = patch(log);
    EXPECT_EQ(out.intervals[0].timestamp, 10u);
    EXPECT_EQ(out.intervals[1].timestamp, 20u);
}

TEST(PatcherDeathTest, OffsetEscapingLogIsRejected)
{
    CoreLog log;
    log.intervals.resize(1);
    log.intervals[0].entries.push_back(
        LogEntry::reorderedStore(0x100, 1, 1)); // offset 1 from interval 0
    EXPECT_DEATH(patch(log), "escapes");
}

} // namespace
