#include <gtest/gtest.h>

#include <algorithm>

#include "machine/machine.hh"
#include "rnr/parallel_schedule.hh"
#include "rnr/patcher.hh"
#include "rnr/replay_cost.hh"
#include "rnr/replayer.hh"
#include "sim/rng.hh"
#include "workloads/kernels.hh"

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

/** Modelled replay cycles of interval(ts, @p block). */
std::uint64_t
cost(std::uint64_t block)
{
    return intervalReplayCost(interval(0, block)).total();
}

TEST(ParallelSchedule, IndependentCoresRunConcurrently)
{
    std::vector<CoreLog> logs(2);
    logs[0].intervals.push_back(interval(1, 100));
    logs[1].intervals.push_back(interval(2, 100));
    const auto s = buildParallelSchedule(logs);
    EXPECT_EQ(s.totalWork, 2 * cost(100));
    EXPECT_EQ(s.makespan, cost(100)); // fully parallel
    EXPECT_DOUBLE_EQ(s.speedup(), 2.0);
    EXPECT_EQ(s.edges, 0u);
}

TEST(ParallelSchedule, EdgesSerialize)
{
    std::vector<CoreLog> logs(2);
    logs[0].intervals.push_back(interval(1, 100));
    logs[1].intervals.push_back(interval(2, 100, {{0, 0}}));
    const auto s = buildParallelSchedule(logs);
    EXPECT_EQ(s.makespan, cost(100) + cost(100)); // chained by the edge
    EXPECT_EQ(s.edges, 1u);
}

TEST(ParallelSchedule, SameCoreChainIsImplicit)
{
    std::vector<CoreLog> logs(1);
    logs[0].intervals.push_back(interval(1, 50));
    logs[0].intervals.push_back(interval(2, 70));
    const auto s = buildParallelSchedule(logs);
    EXPECT_EQ(s.makespan, cost(50) + cost(70));
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
    const auto s = buildParallelSchedule(logs);
    // B and C overlap after A; D waits for C, the longer of the two.
    EXPECT_EQ(s.intervals, 4u);
    EXPECT_EQ(s.makespan, cost(100) + cost(60) + cost(10));
    EXPECT_EQ(s.totalWork, cost(100) + cost(30) + cost(60) + cost(10));
}

TEST(ParallelSchedule, CostModelComponents)
{
    EXPECT_EQ(kReplayIpc, 2.5);
    EXPECT_EQ(kInterruptCost, 150u);
    EXPECT_EQ(kPerEntryCost, 20u);
    EXPECT_EQ(kPerReorderedCost, 150u);
    EXPECT_EQ(kPerIntervalCost, 400u);

    // A block runs natively at kReplayIpc (rounded down) and ends in
    // an interrupt; every other entry is emulated.
    EXPECT_EQ(entryReplayCost(LogEntry::inorderBlock(20)),
              (ReplayCost{8, 20 + 150}));
    EXPECT_EQ(entryReplayCost(LogEntry::inorderBlock(21)),
              (ReplayCost{8, 20 + 150}));
    for (const LogEntry &e :
         {LogEntry::reorderedLoad(1), LogEntry::patchedStore(0x80, 7),
          LogEntry::dummyStore(), LogEntry::dummyAtomic(3)})
        EXPECT_EQ(entryReplayCost(e), (ReplayCost{0, 20 + 150}))
            << toString(e.kind);

    IntervalRecord iv;
    iv.entries.push_back(LogEntry::inorderBlock(20));
    iv.entries.push_back(LogEntry::reorderedLoad(1));
    EXPECT_EQ(intervalReplayCost(iv), (ReplayCost{8, 400 + 170 + 170}));
    EXPECT_EQ(intervalReplayCost(IntervalRecord{}), (ReplayCost{0, 400}));
}

TEST(ParallelSchedule, EmptyLogsProduceEmptySchedule)
{
    const auto none = buildParallelSchedule({});
    EXPECT_EQ(none.intervals, 0u);
    EXPECT_EQ(none.makespan, 0u);
    EXPECT_EQ(none.totalWork, 0u);
    EXPECT_DOUBLE_EQ(none.speedup(), 1.0);

    // Cores that recorded nothing are equally legal.
    std::vector<CoreLog> logs(4);
    const auto s = buildParallelSchedule(logs);
    EXPECT_EQ(s.intervals, 0u);
    EXPECT_EQ(s.makespan, 0u);
    EXPECT_DOUBLE_EQ(s.speedup(), 1.0);
}

TEST(ParallelSchedule, SingleIntervalHasNoParallelism)
{
    std::vector<CoreLog> logs(1);
    logs[0].intervals.push_back(interval(1, 42));
    const auto s = buildParallelSchedule(logs);
    EXPECT_EQ(s.intervals, 1u);
    EXPECT_EQ(s.makespan, cost(42));
    EXPECT_EQ(s.totalWork, cost(42));
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
    const auto s = buildParallelSchedule(logs);
    EXPECT_EQ(s.totalWork, cost(10) + cost(20) + cost(30) + cost(40));
    EXPECT_EQ(s.makespan, s.totalWork);
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
    const auto with_dep = buildParallelSchedule(logs);
    EXPECT_EQ(with_dep.makespan, with_dep.totalWork)
        << "dependent intervals must not overlap";
    EXPECT_DOUBLE_EQ(with_dep.speedup(), 1.0);

    // Control: drop the edge and the same two intervals overlap.
    logs[1].intervals[0].predecessors.clear();
    const auto without = buildParallelSchedule(logs);
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
        {0, 0, 2}, // ends where the edge to c1 leaves
        {0, 2, 1}, // cut only because the next one has a pred
        {0, 3, 2}, // the core's last segment
        {1, 0, 1}, // feeds c0 i3
        {1, 1, 2}, // last
    };
    EXPECT_EQ(dag.segments, want);
    EXPECT_EQ(successors(dag, 0), (std::vector<std::uint32_t>{1, 4}));
    EXPECT_EQ(successors(dag, 1), (std::vector<std::uint32_t>{2}));
    EXPECT_TRUE(successors(dag, 2).empty());
    EXPECT_EQ(successors(dag, 3), (std::vector<std::uint32_t>{4, 2}));
    EXPECT_TRUE(successors(dag, 4).empty());
    EXPECT_EQ(dag.indegree, (std::vector<std::uint32_t>{0, 1, 2, 0, 2}));
}

TEST(SegmentDag, IncomingEdgesAloneCutAChain)
{
    // A core whose chain is cut only by incoming edges still splits
    // before each of them; an interval with both an incoming and an
    // outgoing edge is a segment of its own.
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
        {0, 0, 1}, {0, 1, 1}, {0, 2, 2}, {1, 0, 1},
        {1, 1, 1}, {1, 2, 1}, {2, 0, 1}, {2, 1, 1},
    };
    EXPECT_EQ(dag.segments, want);
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
    const std::vector<ReplaySegment> want = {{0, 0, 5}, {1, 0, 2}};
    EXPECT_EQ(dag.segments, want);
    EXPECT_TRUE(dag.succ.empty());
    EXPECT_EQ(dag.indegree, (std::vector<std::uint32_t>{0, 0}));

    EXPECT_TRUE(buildSegmentDag({}).segments.empty());
}

TEST(ListSchedule, LanesBoundTheOverlap)
{
    // Three independent cores: their segments overlap only as far as
    // lanes allow, and each takes the earliest-free lane.
    std::vector<CoreLog> logs(3);
    logs[0].intervals.push_back(interval(1, 10));
    logs[1].intervals.push_back(interval(2, 10));
    logs[2].intervals.push_back(interval(3, 10));
    const SegmentDag dag = buildSegmentDag(logs);
    const std::vector<double> cost = {5.0, 3.0, 4.0};
    EXPECT_EQ(listSchedule(dag, cost, 3), 5.0);
    EXPECT_EQ(listSchedule(dag, cost, 2), 7.0); // 4 waits for 3
    EXPECT_EQ(listSchedule(dag, cost, 1), 12.0);
    EXPECT_EQ(listSchedule(SegmentDag{}, {}, 1), 0.0);

    // An edge delays its successor past a free lane.
    logs[1].intervals[0].predecessors = {{0, 0}};
    EXPECT_EQ(listSchedule(buildSegmentDag(logs), cost, 3), 8.0);
}

/**
 * The interval-level schedule buildParallelSchedule() computed before
 * it became a segment-level listSchedule(), kept as its reference:
 * intervals in timestamp order (a topological order, since every edge
 * points back in time), each starting once its core's previous
 * interval and every recorded predecessor have finished.
 */
ParallelSchedule
referenceSchedule(const std::vector<CoreLog> &logs)
{
    ParallelSchedule sched;
    struct Ref
    {
        std::uint64_t timestamp;
        std::uint32_t core;
        std::uint32_t index;
    };
    std::vector<Ref> refs;
    std::vector<std::vector<std::uint64_t>> finish(logs.size());
    for (std::uint32_t c = 0; c < logs.size(); ++c) {
        finish[c].resize(logs[c].intervals.size(), 0);
        for (std::uint32_t i = 0; i < logs[c].intervals.size(); ++i)
            refs.push_back({logs[c].intervals[i].timestamp, c, i});
    }
    std::sort(refs.begin(), refs.end(), [](const Ref &a, const Ref &b) {
        return a.timestamp < b.timestamp;
    });
    for (const Ref &ref : refs) {
        const IntervalRecord &iv = logs[ref.core].intervals[ref.index];
        const std::uint64_t cost = intervalReplayCost(iv).total();
        std::uint64_t start =
            ref.index > 0 ? finish[ref.core][ref.index - 1] : 0;
        for (const IntervalDep &d : iv.predecessors) {
            start = std::max(start, finish[d.core][d.isn]);
            ++sched.edges;
        }
        finish[ref.core][ref.index] = start + cost;
        ++sched.intervals;
        sched.totalWork += cost;
        sched.makespan = std::max(sched.makespan, start + cost);
    }
    return sched;
}

void
expectMatchesReference(const std::vector<CoreLog> &logs)
{
    const ParallelSchedule want = referenceSchedule(logs);
    const ParallelSchedule got = buildParallelSchedule(logs);
    EXPECT_EQ(got.intervals, want.intervals);
    EXPECT_EQ(got.makespan, want.makespan);
    EXPECT_EQ(got.totalWork, want.totalWork);
    EXPECT_EQ(got.edges, want.edges);
}

/**
 * 1-8 cores and up to 80 intervals of random entries, closed in
 * timestamp order by random cores. Each interval takes an edge to a
 * random earlier interval of about a third of the cores, its own
 * included, so every edge points back in time as the recorder's do.
 */
std::vector<CoreLog>
generatedLogs(std::uint64_t seed)
{
    rr::sim::Rng rng(seed);
    std::vector<CoreLog> logs(1 + rng.below(8));
    const std::uint64_t intervals = rng.below(81);
    for (std::uint64_t ts = 1; ts <= intervals; ++ts) {
        IntervalRecord iv;
        iv.timestamp = ts;
        for (std::uint64_t n = 1 + rng.below(4); n > 0; --n) {
            switch (rng.below(4)) {
              case 0:
                iv.entries.push_back(LogEntry::reorderedLoad(n));
                break;
              case 1:
                iv.entries.push_back(LogEntry::patchedStore(0x80, n));
                break;
              default:
                iv.entries.push_back(
                    LogEntry::inorderBlock(rng.below(5000)));
            }
        }
        for (std::uint32_t c = 0; c < logs.size(); ++c) {
            const std::size_t closed = logs[c].intervals.size();
            if (closed > 0 && rng.below(3) == 0)
                iv.predecessors.push_back(
                    {c, static_cast<std::uint32_t>(rng.below(closed))});
        }
        logs[rng.below(logs.size())].intervals.push_back(std::move(iv));
    }
    return logs;
}

TEST(ParallelSchedule, MatchesTheIntervalLevelReferenceOnGeneratedLogs)
{
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        SCOPED_TRACE(seed);
        expectMatchesReference(generatedLogs(seed));
    }
}

TEST(ParallelSchedule, MatchesTheIntervalLevelReferenceOnRecordedLogs)
{
    for (const char *kernel : {"fft", "lu", "cholesky"}) {
        SCOPED_TRACE(kernel);
        rr::workloads::WorkloadParams wp;
        wp.numThreads = 4;
        const rr::workloads::Workload w =
            rr::workloads::buildKernel(kernel, wp);
        rr::sim::MachineConfig cfg;
        cfg.numCores = 4;
        rr::sim::RecorderConfig deps;
        deps.maxIntervalInstructions = 1024;
        deps.recordDependencies = true;
        rr::machine::Machine m(cfg, w.program, {deps});
        const rr::machine::RecordingResult rec = m.run();
        std::vector<CoreLog> logs;
        for (const CoreLog &log : rec.logs[0])
            logs.push_back(patch(log));

        expectMatchesReference(logs);
        const ParallelSchedule sched = buildParallelSchedule(logs);
        EXPECT_GT(sched.edges, 0u);
        ReplayCost priced;
        for (const CoreLog &log : logs)
            for (const IntervalRecord &iv : log.intervals)
                priced += intervalReplayCost(iv);
        const ReplayResult res =
            Replayer(w.program, logs, m.initialMemory().clone()).run();
        EXPECT_EQ(res.cost, priced);
        EXPECT_EQ(res.cost.total(), sched.totalWork);
    }
}

TEST(ParallelScheduleDeathTest, EdgeEscapingLogsIsRejected)
{
    std::vector<CoreLog> logs(1);
    logs[0].intervals.push_back(interval(1, 10, {{0, 5}}));
    EXPECT_DEATH(buildParallelSchedule(logs), "escapes");

    std::vector<CoreLog> two(2);
    two[0].intervals.push_back(interval(1, 10));
    two[1].intervals.push_back(interval(2, 10, {{0, 1}}));
    EXPECT_DEATH(buildSegmentDag(two), "escapes");
}

} // namespace
