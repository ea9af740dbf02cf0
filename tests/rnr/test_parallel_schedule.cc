#include <gtest/gtest.h>

#include "rnr/parallel_schedule.hh"

namespace
{

using namespace rr::rnr;

IntervalRecord
interval(std::uint64_t ts, std::uint64_t block,
         std::vector<IntervalDep> preds = {})
{
    IntervalRecord iv;
    iv.entries.push_back(LogEntry::inorderBlock(block));
    iv.timestamp = ts;
    iv.predecessors = std::move(preds);
    return iv;
}

ReplayCostModel
unitCost()
{
    ReplayCostModel m;
    m.replayIpc = 1.0;
    m.interruptCost = 0;
    m.perEntryCost = 0;
    m.perReorderedCost = 0;
    m.perIntervalCost = 0;
    return m;
}

TEST(ParallelSchedule, IndependentCoresRunConcurrently)
{
    std::vector<CoreLog> logs(2);
    logs[0].intervals.push_back(interval(1, 100));
    logs[1].intervals.push_back(interval(2, 100));
    const auto s = buildParallelSchedule(logs, unitCost());
    EXPECT_EQ(s.totalWork, 200u);
    EXPECT_EQ(s.makespan, 100u); // fully parallel
    EXPECT_DOUBLE_EQ(s.speedup(), 2.0);
    EXPECT_EQ(s.edges, 0u);
}

TEST(ParallelSchedule, EdgesSerialize)
{
    std::vector<CoreLog> logs(2);
    logs[0].intervals.push_back(interval(1, 100));
    logs[1].intervals.push_back(interval(2, 100, {{0, 0}}));
    const auto s = buildParallelSchedule(logs, unitCost());
    EXPECT_EQ(s.makespan, 200u); // chained by the edge
    EXPECT_EQ(s.edges, 1u);
}

TEST(ParallelSchedule, SameCoreChainIsImplicit)
{
    std::vector<CoreLog> logs(1);
    logs[0].intervals.push_back(interval(1, 50));
    logs[0].intervals.push_back(interval(2, 70));
    const auto s = buildParallelSchedule(logs, unitCost());
    EXPECT_EQ(s.makespan, 120u);
}

TEST(ParallelSchedule, DiamondDependency)
{
    // c0: A (ts1). c1: B after A (ts2). c2: C after A (ts3).
    // c0: D after B and C (ts4, second interval of core 0).
    std::vector<CoreLog> logs(3);
    logs[0].intervals.push_back(interval(1, 100));                // A
    logs[1].intervals.push_back(interval(2, 30, {{0, 0}}));       // B
    logs[2].intervals.push_back(interval(3, 60, {{0, 0}}));       // C
    logs[0].intervals.push_back(interval(4, 10, {{1, 0}, {2, 0}})); // D
    const auto s = buildParallelSchedule(logs, unitCost());
    // A: 0-100, B: 100-130, C: 100-160, D: 160-170.
    EXPECT_EQ(s.intervals, 4u);
    EXPECT_EQ(s.makespan, 170u);
    EXPECT_EQ(s.totalWork, 200u);
}

TEST(ParallelSchedule, CostModelComponents)
{
    ReplayCostModel m;
    m.replayIpc = 2.0;
    m.interruptCost = 10;
    m.perEntryCost = 1;
    m.perReorderedCost = 5;
    m.perIntervalCost = 100;
    IntervalRecord iv;
    iv.entries.push_back(LogEntry::inorderBlock(20)); // 10 + 10 + 1
    iv.entries.push_back(LogEntry::reorderedLoad(1)); // 5 + 1
    EXPECT_EQ(intervalReplayCost(iv, m), 100u + 21 + 6);
}

TEST(ParallelSchedule, EmptyLogsProduceEmptySchedule)
{
    const auto none = buildParallelSchedule({}, unitCost());
    EXPECT_EQ(none.intervals, 0u);
    EXPECT_EQ(none.makespan, 0u);
    EXPECT_EQ(none.totalWork, 0u);
    EXPECT_DOUBLE_EQ(none.speedup(), 1.0);

    // Cores that recorded nothing are equally legal.
    std::vector<CoreLog> logs(4);
    const auto s = buildParallelSchedule(logs, unitCost());
    EXPECT_EQ(s.intervals, 0u);
    EXPECT_EQ(s.makespan, 0u);
    EXPECT_DOUBLE_EQ(s.speedup(), 1.0);
}

TEST(ParallelSchedule, SingleIntervalHasNoParallelism)
{
    std::vector<CoreLog> logs(1);
    logs[0].intervals.push_back(interval(1, 42));
    const auto s = buildParallelSchedule(logs, unitCost());
    EXPECT_EQ(s.intervals, 1u);
    EXPECT_EQ(s.makespan, 42u);
    EXPECT_EQ(s.totalWork, 42u);
    EXPECT_DOUBLE_EQ(s.speedup(), 1.0);
}

TEST(ParallelSchedule, FullySerializedChainHasSpeedupOne)
{
    // A cross-core dependency chain c0 -> c1 -> c2 -> c0: every
    // interval waits for the previous one, so the "parallel" schedule
    // degenerates to sequential replay exactly.
    std::vector<CoreLog> logs(3);
    logs[0].intervals.push_back(interval(1, 10));
    logs[1].intervals.push_back(interval(2, 20, {{0, 0}}));
    logs[2].intervals.push_back(interval(3, 30, {{1, 0}}));
    logs[0].intervals.push_back(interval(4, 40, {{2, 0}}));
    const auto s = buildParallelSchedule(logs, unitCost());
    EXPECT_EQ(s.totalWork, 100u);
    EXPECT_EQ(s.makespan, 100u);
    EXPECT_DOUBLE_EQ(s.speedup(), 1.0);
    EXPECT_EQ(s.edges, 3u);
}

TEST(ParallelSchedule, PatchedStoreDependencySerializesIntervals)
{
    // Two cores whose single intervals would otherwise overlap
    // perfectly; core 1 reads a word core 0 only publishes when its
    // perform interval ends (a PatchedStore), so the recorder emitted
    // a cross-core edge — the schedule must not overlap them.
    IntervalRecord producer;
    producer.entries.push_back(LogEntry::inorderBlock(100));
    producer.entries.push_back(LogEntry::patchedStore(0x80, 7));
    producer.timestamp = 1;

    IntervalRecord consumer;
    consumer.entries.push_back(LogEntry::inorderBlock(100));
    consumer.timestamp = 2;
    consumer.predecessors = {{0, 0}};

    std::vector<CoreLog> logs(2);
    logs[0].intervals.push_back(producer);
    logs[1].intervals.push_back(consumer);
    const auto with_dep = buildParallelSchedule(logs, unitCost());
    EXPECT_EQ(with_dep.makespan, with_dep.totalWork)
        << "dependent intervals must not overlap";
    EXPECT_DOUBLE_EQ(with_dep.speedup(), 1.0);

    // Control: drop the edge and the same two intervals overlap.
    logs[1].intervals[0].predecessors.clear();
    const auto without = buildParallelSchedule(logs, unitCost());
    EXPECT_LT(without.makespan, without.totalWork);
    EXPECT_GT(without.speedup(), 1.5);
}

/** Successors of segment @p s, in list order. */
std::vector<std::uint32_t>
successors(const SegmentDag &dag, std::uint32_t s)
{
    return {dag.succ.begin() + dag.succBegin[s],
            dag.succ.begin() + dag.succBegin[s + 1]};
}

TEST(SegmentDag, CrossCoreEdgesSplitChainsExactlyThere)
{
    // c0: i0 i1 | i2 | i3 i4   — an edge leaves after i1 (to c1 i1)
    //                           and one enters before i3 (from c1 i0).
    // c1: i0 | i1 i2
    std::vector<CoreLog> logs(2);
    logs[0].intervals.push_back(interval(1, 10));
    logs[0].intervals.push_back(interval(2, 10));
    logs[1].intervals.push_back(interval(3, 10));
    logs[1].intervals.push_back(interval(4, 10, {{0, 1}}));
    logs[0].intervals.push_back(interval(5, 10));
    logs[0].intervals.push_back(interval(6, 10, {{1, 0}}));
    logs[0].intervals.push_back(interval(7, 10));
    logs[1].intervals.push_back(interval(8, 10));

    const SegmentDag dag = buildSegmentDag(logs);
    EXPECT_EQ(dag.intervals, 8u);
    EXPECT_EQ(dag.succ.size(), 5u); // three chain links, two edges
    const std::vector<ReplaySegment> want = {
        {0, 0, 2, true},  // ends where the edge to c1 leaves
        {0, 2, 1, false}, // cut only because the next one has a pred
        {0, 3, 2, true},  // the core's last segment
        {1, 0, 1, true},  // feeds c0 i3
        {1, 1, 2, true},  // last
    };
    EXPECT_EQ(dag.segments, want);
    EXPECT_EQ(successors(dag, 0), (std::vector<std::uint32_t>{1, 4}));
    EXPECT_EQ(successors(dag, 1), (std::vector<std::uint32_t>{2}));
    EXPECT_TRUE(successors(dag, 2).empty());
    EXPECT_EQ(successors(dag, 3), (std::vector<std::uint32_t>{4, 2}));
    EXPECT_TRUE(successors(dag, 4).empty());
    EXPECT_EQ(dag.indegree, (std::vector<std::uint32_t>{0, 1, 2, 0, 2}));
}

TEST(SegmentDag, CommitOnlyWhereAnotherCoreReadsOrAtChainEnd)
{
    // A core whose chain is cut only by incoming edges keeps its writes
    // private until its last segment; an interval with both an
    // incoming and an outgoing edge is a segment of its own.
    std::vector<CoreLog> logs(3);
    logs[1].intervals.push_back(interval(1, 10));
    logs[2].intervals.push_back(interval(2, 10));
    logs[0].intervals.push_back(interval(3, 10));
    logs[0].intervals.push_back(interval(4, 10, {{1, 0}}));
    logs[0].intervals.push_back(interval(5, 10, {{2, 0}}));
    logs[0].intervals.push_back(interval(6, 10));
    logs[1].intervals.push_back(interval(7, 10, {{0, 3}}));
    logs[2].intervals.push_back(interval(8, 10, {{1, 1}}));
    logs[1].intervals.push_back(interval(9, 10));

    const SegmentDag dag = buildSegmentDag(logs);
    const std::vector<ReplaySegment> want = {
        {0, 0, 1, false}, {0, 1, 1, false}, {0, 2, 2, true},
        {1, 0, 1, true},  {1, 1, 1, true},  {1, 2, 1, true},
        {2, 0, 1, true},  {2, 1, 1, true},
    };
    EXPECT_EQ(dag.segments, want);

    // The rule itself, segment by segment.
    for (std::uint32_t s = 0; s < dag.segments.size(); ++s) {
        const ReplaySegment &seg = dag.segments[s];
        bool cross_succ = false;
        for (const std::uint32_t succ : successors(dag, s))
            cross_succ |= dag.segments[succ].core != seg.core;
        const bool last = seg.first + seg.count ==
                          logs[seg.core].intervals.size();
        EXPECT_EQ(seg.commit, cross_succ || last) << "segment " << s;
    }
}

TEST(SegmentDag, CoreWithoutCrossCoreEdgesIsOneSegment)
{
    std::vector<CoreLog> logs(3); // core 2 recorded nothing
    for (std::uint64_t ts = 1; ts <= 5; ++ts)
        logs[0].intervals.push_back(interval(ts, 10));
    // Same-core recorded edges are program order, not cut points.
    logs[1].intervals.push_back(interval(6, 10));
    logs[1].intervals.push_back(interval(7, 10, {{1, 0}}));

    const SegmentDag dag = buildSegmentDag(logs);
    const std::vector<ReplaySegment> want = {{0, 0, 5, true},
                                             {1, 0, 2, true}};
    EXPECT_EQ(dag.segments, want);
    EXPECT_TRUE(dag.succ.empty());
    EXPECT_EQ(dag.indegree, (std::vector<std::uint32_t>{0, 0}));

    EXPECT_TRUE(buildSegmentDag({}).segments.empty());
}

TEST(ParallelScheduleDeathTest, EdgeEscapingLogsIsRejected)
{
    std::vector<CoreLog> logs(1);
    logs[0].intervals.push_back(interval(1, 10, {{0, 5}}));
    EXPECT_DEATH(buildParallelSchedule(logs, unitCost()), "escapes");

    std::vector<CoreLog> two(2);
    two[0].intervals.push_back(interval(1, 10));
    two[1].intervals.push_back(interval(2, 10, {{0, 1}}));
    EXPECT_DEATH(buildSegmentDag(two), "escapes");
}

} // namespace
