#include <gtest/gtest.h>

#include <vector>

#include "rnr/log.hh"
#include "sim/rng.hh"

namespace
{

using namespace rr::rnr;

CoreLog
sampleLog()
{
    CoreLog log;
    IntervalRecord iv0;
    iv0.entries.push_back(LogEntry::inorderBlock(10));
    iv0.entries.push_back(LogEntry::reorderedLoad(0x1122334455667788ULL));
    iv0.entries.push_back(LogEntry::inorderBlock(3));
    iv0.cisn = 0;
    iv0.timestamp = 100;
    log.intervals.push_back(iv0);

    IntervalRecord iv1;
    iv1.entries.push_back(
        LogEntry::reorderedStore(0x2000, 0xabcdef, 1));
    iv1.entries.push_back(
        LogEntry::reorderedAtomic(0x3000, 1, 2, 1));
    iv1.entries.push_back(LogEntry::inorderBlock(7));
    iv1.cisn = 1;
    iv1.timestamp = 250;
    log.intervals.push_back(iv1);
    return log;
}

TEST(Log, EntrySizesMatchFormat)
{
    // type tag 3 bits; fields per Figure 6c.
    EXPECT_EQ(LogEntry::inorderBlock(1).sizeBits(), 3u + 32);
    EXPECT_EQ(LogEntry::reorderedLoad(1).sizeBits(), 3u + 64);
    EXPECT_EQ(LogEntry::reorderedStore(1, 1, 1).sizeBits(),
              3u + 48 + 64 + 16);
    EXPECT_EQ(LogEntry::reorderedAtomic(1, 1, 1, 1).sizeBits(),
              3u + 48 + 64 + 64 + 16);
    EXPECT_EQ(LogEntry::patchedStore(1, 1).sizeBits(), 3u + 48 + 64);
    EXPECT_EQ(LogEntry::dummyStore().sizeBits(), 3u);
    EXPECT_EQ(LogEntry::dummyAtomic(1).sizeBits(), 3u + 64);
}

TEST(Log, IntervalSizeIncludesFrame)
{
    IntervalRecord iv;
    iv.entries.push_back(LogEntry::inorderBlock(4));
    // frame = 3 (tag) + 16 (cisn) + 64 (timestamp)
    EXPECT_EQ(iv.sizeBits(), (3u + 32) + (3u + 16 + 64));
}

TEST(Log, StatsAccumulate)
{
    LogStats stats;
    stats.accumulate(sampleLog());
    EXPECT_EQ(stats.intervals, 2u);
    EXPECT_EQ(stats.inorderBlocks, 3u);
    EXPECT_EQ(stats.inorderInstructions, 20u);
    EXPECT_EQ(stats.reorderedLoads, 1u);
    EXPECT_EQ(stats.reorderedStores, 1u);
    EXPECT_EQ(stats.reorderedAtomics, 1u);
    EXPECT_EQ(stats.reordered(), 3u);
    EXPECT_EQ(stats.instructions(), 23u);
    EXPECT_EQ(stats.totalBits, sampleLog().sizeBits());
}

TEST(Log, StatsAddCountsOneIntervalAsAccumulateDoes)
{
    LogStats one_by_one, whole;
    for (const auto &iv : sampleLog().intervals)
        one_by_one.add(iv);
    whole.accumulate(sampleLog());
    EXPECT_EQ(one_by_one.intervals, whole.intervals);
    EXPECT_EQ(one_by_one.inorderBlocks, whole.inorderBlocks);
    EXPECT_EQ(one_by_one.inorderInstructions, whole.inorderInstructions);
    EXPECT_EQ(one_by_one.reorderedLoads, whole.reorderedLoads);
    EXPECT_EQ(one_by_one.reorderedStores, whole.reorderedStores);
    EXPECT_EQ(one_by_one.reorderedAtomics, whole.reorderedAtomics);
    EXPECT_EQ(one_by_one.totalBits, whole.totalBits);
}

TEST(Log, StatsAddition)
{
    LogStats a, b;
    a.accumulate(sampleLog());
    b.accumulate(sampleLog());
    b += a;
    EXPECT_EQ(b.intervals, 4u);
    EXPECT_EQ(b.reordered(), 6u);
}

TEST(Log, PackUnpackRoundTrip)
{
    const CoreLog log = sampleLog();
    const PackedLog packed = pack(log);
    EXPECT_EQ(packed.bitCount, log.sizeBits() + 1); // +layout bit
    const CoreLog back = unpack(packed);
    ASSERT_EQ(back.intervals.size(), log.intervals.size());
    for (std::size_t i = 0; i < log.intervals.size(); ++i) {
        EXPECT_EQ(back.intervals[i].entries, log.intervals[i].entries);
        EXPECT_EQ(back.intervals[i].cisn, log.intervals[i].cisn);
        EXPECT_EQ(back.intervals[i].timestamp,
                  log.intervals[i].timestamp);
    }
}

TEST(Log, PackUnpackPatchedEntries)
{
    CoreLog log;
    IntervalRecord iv;
    iv.entries.push_back(LogEntry::patchedStore(0x4000, 77));
    iv.entries.push_back(LogEntry::dummyStore());
    iv.entries.push_back(LogEntry::dummyAtomic(88));
    iv.cisn = 0;
    iv.timestamp = 5;
    log.intervals.push_back(iv);
    const CoreLog back = unpack(pack(log));
    EXPECT_EQ(back.intervals[0].entries, log.intervals[0].entries);
}

TEST(Log, RandomizedPackUnpack)
{
    rr::sim::Rng rng(99);
    CoreLog log;
    for (int i = 0; i < 50; ++i) {
        IntervalRecord iv;
        const int n = 1 + static_cast<int>(rng.below(6));
        for (int e = 0; e < n; ++e) {
            switch (rng.below(4)) {
              case 0:
                iv.entries.push_back(
                    LogEntry::inorderBlock(rng.below(100000)));
                break;
              case 1:
                iv.entries.push_back(LogEntry::reorderedLoad(rng.next()));
                break;
              case 2:
                iv.entries.push_back(LogEntry::reorderedStore(
                    rng.next() & 0xffffffffffffULL, rng.next(),
                    1 + static_cast<std::uint32_t>(rng.below(100))));
                break;
              default:
                iv.entries.push_back(LogEntry::reorderedAtomic(
                    rng.next() & 0xffffffffffffULL, rng.next(),
                    rng.next(),
                    1 + static_cast<std::uint32_t>(rng.below(100))));
                break;
            }
        }
        iv.cisn = static_cast<rr::sim::Isn>(i);
        iv.timestamp = rng.next();
        log.intervals.push_back(iv);
    }
    const CoreLog back = unpack(pack(log));
    ASSERT_EQ(back.intervals.size(), log.intervals.size());
    for (std::size_t i = 0; i < log.intervals.size(); ++i)
        EXPECT_EQ(back.intervals[i].entries, log.intervals[i].entries);
}

/**
 * Property test: any CoreLog the generator can produce must (a) have a
 * packed size of exactly sizeBits() + 1 layout bit and (b) survive a
 * pack/unpack round trip. Stresses the edge cases the fixed tests
 * don't: empty logs, zero-entry intervals, maximum 16-bit interval
 * offsets, and dependency frames (dep-uniform: the packed layout is
 * file-global, so either every interval carries predecessors or none
 * does).
 */
TEST(Log, PropertyPackedSizeAndRoundTrip)
{
    rr::sim::Rng rng(0x106f00dULL);
    for (int trial = 0; trial < 40; ++trial) {
        const bool with_deps = trial % 4 == 3;
        CoreLog log;
        const int num_intervals = static_cast<int>(rng.below(12));
        for (int i = 0; i < num_intervals; ++i) {
            IntervalRecord iv;
            // ~1 in 4 intervals is empty (terminated with no entries).
            const int n = rng.below(4) == 0
                              ? 0
                              : 1 + static_cast<int>(rng.below(8));
            for (int e = 0; e < n; ++e) {
                switch (rng.below(7)) {
                  case 0:
                    iv.entries.push_back(
                        LogEntry::inorderBlock(rng.below(1u << 31)));
                    break;
                  case 1:
                    iv.entries.push_back(
                        LogEntry::reorderedLoad(rng.next()));
                    break;
                  case 2:
                    // Max-offset reordered store: the full 16-bit
                    // offset field must survive.
                    iv.entries.push_back(LogEntry::reorderedStore(
                        rng.next() & 0xffffffffffffULL, rng.next(),
                        0xffff));
                    break;
                  case 3:
                    iv.entries.push_back(LogEntry::reorderedAtomic(
                        rng.next() & 0xffffffffffffULL, rng.next(),
                        rng.next(),
                        1 + static_cast<std::uint32_t>(
                                rng.below(0xffff))));
                    break;
                  case 4:
                    iv.entries.push_back(LogEntry::patchedStore(
                        rng.next() & 0xffffffffffffULL, rng.next()));
                    break;
                  case 5:
                    iv.entries.push_back(LogEntry::dummyStore());
                    break;
                  default:
                    iv.entries.push_back(
                        LogEntry::dummyAtomic(rng.next()));
                    break;
                }
            }
            iv.cisn = static_cast<rr::sim::Isn>(i);
            iv.timestamp = rng.next();
            if (with_deps) {
                const int deps = 1 + static_cast<int>(rng.below(3));
                for (int d = 0; d < deps; ++d)
                    iv.predecessors.push_back(IntervalDep{
                        static_cast<rr::sim::CoreId>(rng.below(8)),
                        static_cast<rr::sim::Isn>(rng.below(1000))});
            }
            log.intervals.push_back(std::move(iv));
        }

        const PackedLog packed = pack(log);
        EXPECT_EQ(packed.bitCount, log.sizeBits() + 1)
            << "trial " << trial << " (deps=" << with_deps << ")";
        const CoreLog back = unpack(packed);
        ASSERT_EQ(back.intervals.size(), log.intervals.size());
        for (std::size_t i = 0; i < log.intervals.size(); ++i) {
            EXPECT_EQ(back.intervals[i].entries,
                      log.intervals[i].entries);
            EXPECT_EQ(back.intervals[i].cisn, log.intervals[i].cisn);
            EXPECT_EQ(back.intervals[i].timestamp,
                      log.intervals[i].timestamp);
            EXPECT_EQ(back.intervals[i].predecessors,
                      log.intervals[i].predecessors);
        }
    }
}

/** Two cores whose logs hold every replay invariant. */
std::vector<CoreLog>
soundLogs()
{
    std::vector<CoreLog> logs(2);
    logs[0] = sampleLog(); // timestamps 100, 250; offsets 1 at index 1
    IntervalRecord a;
    a.entries.push_back(LogEntry::inorderBlock(4));
    a.timestamp = 120;
    a.predecessors.push_back(IntervalDep{0, 0}); // ts 100 < 120
    logs[1].intervals.push_back(a);
    IntervalRecord b;
    b.timestamp = 300;
    b.predecessors.push_back(IntervalDep{0, 1}); // ts 250 < 300
    logs[1].intervals.push_back(b);
    return logs;
}

TEST(Log, ReplayInvariantsHoldOnASoundLog)
{
    EXPECT_EQ(replayInvariantViolation(soundLogs()), "");
    EXPECT_EQ(replayInvariantViolation({}), "");
}

TEST(Log, ReplayInvariantViolationsNameTheCoreAndInterval)
{
    auto logs = soundLogs();
    logs[0].intervals[1].timestamp = 100; // ties its predecessor
    EXPECT_EQ(replayInvariantViolation(logs),
              "core 0 interval 1 (timestamp 100): timestamp does not "
              "follow the previous interval's 100");

    logs = soundLogs();
    logs[0].intervals[1].entries[0].offset = 2; // past index 1
    EXPECT_EQ(replayInvariantViolation(logs),
              "core 0 interval 1 (timestamp 250): ReorderedStore offset 2 "
              "is outside [1, 1]");

    logs = soundLogs();
    logs[0].intervals[1].entries[1].offset = 0;
    EXPECT_EQ(replayInvariantViolation(logs),
              "core 0 interval 1 (timestamp 250): ReorderedAtomic offset 0 "
              "is outside [1, 1]");

    logs = soundLogs();
    logs[1].intervals[0].predecessors[0].core = 2; // no such core
    EXPECT_EQ(replayInvariantViolation(logs),
              "core 1 interval 0 (timestamp 120): dependency edge names "
              "core 2 interval 0, which the log lacks");

    logs = soundLogs();
    logs[1].intervals[0].predecessors[0].isn = 2; // past core 0's end
    EXPECT_EQ(replayInvariantViolation(logs),
              "core 1 interval 0 (timestamp 120): dependency edge names "
              "core 0 interval 2, which the log lacks");

    logs = soundLogs();
    logs[1].intervals[0].predecessors[0].isn = 1; // ts 250 > 120
    EXPECT_EQ(replayInvariantViolation(logs),
              "core 1 interval 0 (timestamp 120): dependency edge names "
              "core 0 interval 1, which does not precede it");
}

TEST(Log, EntryKindNames)
{
    EXPECT_STREQ(toString(EntryKind::InorderBlock), "InorderBlock");
    EXPECT_STREQ(toString(EntryKind::ReorderedLoad), "ReorderedLoad");
    EXPECT_STREQ(toString(EntryKind::PatchedStore), "PatchedStore");
}

} // namespace
