/**
 * @file
 * Focused tests of the replay engine on real recordings, for what the
 * replay check (replay_check.hh) does not cover: that logs without
 * edges replay right at any worker count, because the engine never
 * fans out over them; that a fanned-out replay reports the same
 * divergence as the one-worker walk; that an abort lands within one
 * interval; that run() is single-use; that the measured-schedule
 * accounting is sane, and absent on one worker; and that the load hook
 * sees exactly the values the result digests, on either order.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "replay_check.hh"
#include "rnr/parallel_schedule.hh"
#include "rnr/replayer.hh"

namespace
{

using namespace rr;

/** A recording of @p kernel under one Opt policy, with or without
 *  dependency edges. */
check::Recorded
recordOpt(const std::string &kernel, std::uint32_t cores,
          std::uint64_t cap, bool edges = true)
{
    check::Scenario sc;
    sc.kernel = kernel;
    sc.cores = cores;
    sc.policies = {check::policy(sim::RecorderMode::Opt, cap, edges)};
    return check::record(sc);
}

/** The engine over @p run's initial image, offered @p workers. */
rnr::Replayer
replayer(const check::Recorded &run, std::vector<rnr::CoreLog> patched,
         std::uint32_t workers = 1, std::function<bool()> abort = {})
{
    return rnr::Replayer(run.program, std::move(patched),
                         run.machine->initialMemory().clone(),
                         {workers, std::move(abort)});
}

/** The per-core mixLoadValue chains and counts of hook calls. */
struct HookDigest
{
    explicit HookDigest(std::size_t cores) : hashes(cores), counts(cores) {}

    void
    add(sim::CoreId c, std::uint64_t v)
    {
        hashes[c] = machine::mixLoadValue(hashes[c], v);
        ++counts[c];
    }

    std::vector<std::uint64_t> hashes;
    std::vector<std::uint64_t> counts;
};

TEST(LoadHook, SequentialEngineSeesWhatTheResultDigests)
{
    const check::Recorded run = recordOpt("fft", 2, 1024);
    rnr::Replayer rep = replayer(run, check::patchedLogs(run, 0));
    HookDigest seen(2);
    rep.setLoadHook(
        [&](sim::CoreId c, std::uint64_t v) { seen.add(c, v); });
    const rnr::ReplayResult res = rep.run();
    EXPECT_EQ(res.workers, 1u);
    EXPECT_EQ(res.loadHashes, seen.hashes);
    EXPECT_EQ(res.loadCounts, seen.counts);
}

TEST(LoadHook, ParallelEngineSeesWhatTheResultDigests)
{
    // Calls for one core are serialized in its program order, so the
    // per-core chains need no lock.
    const check::Recorded run = recordOpt("fft", 2, 1024);
    rnr::Replayer rep = replayer(run, check::patchedLogs(run, 0), 2);
    HookDigest seen(2);
    rep.setLoadHook(
        [&](sim::CoreId c, std::uint64_t v) { seen.add(c, v); });
    const rnr::ReplayResult res = rep.run();
    EXPECT_EQ(res.workers, 2u);
    EXPECT_EQ(res.loadHashes, seen.hashes);
    EXPECT_EQ(res.loadCounts, seen.counts);
}

TEST(Replayer, LogsWithoutEdgesReplayRightOnFourWorkers)
{
    // Without cross-core edges the DAG is only the per-core chains,
    // which do not order the cores' shared accesses: fanned out, these
    // logs diverge. The engine walks the recorded order instead.
    for (const char *kernel : {"fft", "lu", "radix", "ocean"}) {
        SCOPED_TRACE(kernel);
        const check::Recorded run = recordOpt(kernel, 4, 1024, false);
        const rnr::ReplayResult res =
            replayer(run, check::patchedLogs(run, 0), 4).run();
        EXPECT_EQ(res.workers, 1u);
        EXPECT_EQ(res.memory.fingerprint(), run.rec.memoryFingerprint);
        EXPECT_EQ(res.instructions, run.rec.totalInstructions);
        for (sim::CoreId c = 0; c < 4; ++c) {
            EXPECT_EQ(res.loadHashes[c], run.rec.cores[c].loadValueHash)
                << "core " << c;
            EXPECT_EQ(res.contexts[c].instructions,
                      run.rec.cores[c].retiredInstructions)
                << "core " << c;
        }
    }
}

TEST(Replayer, MeasuredScheduleAccountingIsSane)
{
    const check::Recorded run = recordOpt("fft", 8, 1024);

    // One worker walks the recorded order and measures no schedule,
    // even on a log with edges.
    const rnr::ReplayResult one =
        replayer(run, check::patchedLogs(run, 0)).run();
    EXPECT_EQ(one.workers, 1u);
    EXPECT_TRUE(one.engineStats.counters().empty());
    EXPECT_TRUE(one.engineStats.scalars().empty());
    EXPECT_EQ(one.measuredSerialSeconds, 0.0);
    EXPECT_EQ(one.measuredSpanSeconds, 0.0);

    rnr::ReplayResult res =
        replayer(run, check::patchedLogs(run, 0), 4).run();

    EXPECT_EQ(res.workers, 4u);
    EXPECT_GT(res.wallSeconds, 0.0);
    EXPECT_GT(res.measuredSerialSeconds, 0.0);
    EXPECT_GT(res.measuredSpanSeconds, 0.0);
    // The span can never beat the critical path nor the worker count,
    // and can never exceed the serial work.
    EXPECT_LE(res.measuredSpanSeconds, res.measuredSerialSeconds + 1e-9);
    EXPECT_LE(res.measuredSerialSeconds / res.measuredSpanSeconds,
              4.0 + 1e-9);

    sim::StatSet &stats = res.engineStats;
    EXPECT_EQ(stats.counterValue("intervals_replayed"), res.intervals);
    EXPECT_GT(stats.counterValue("segments"), 0u);
    EXPECT_LE(stats.counterValue("segments"), res.intervals);
    EXPECT_GT(stats.counterValue("tasks_run"), 0u);
    EXPECT_EQ(stats.scalar("worker_busy_seconds").count(), 4u);
    EXPECT_EQ(stats.scalar("worker_cpu_seconds").count(), 4u);
    // Each worker's thread CPU time fits inside the drain's wall clock;
    // the slack covers the two clocks' rounding.
    ASSERT_EQ(stats.scalar("cpu_concurrency").count(), 1u);
    const double concurrency = stats.scalar("cpu_concurrency").mean();
    EXPECT_GT(concurrency, 0.0);
    EXPECT_LE(concurrency, 4.0 * (1 + 1e-3));
}

TEST(Replayer, AbortLandsWithinOneIntervalOfASegment)
{
    // One core: the engine walks the recorded order, and its whole
    // chain would be one segment. Cancellation must still be polled
    // before every interval, not once per chain.
    const check::Recorded run = recordOpt("fft", 1, 128);
    const std::vector<rnr::CoreLog> patched = check::patchedLogs(run, 0);
    const rnr::SegmentDag dag = rnr::buildSegmentDag(patched);
    ASSERT_EQ(dag.segments.size(), 1u);
    ASSERT_GT(dag.intervals, 20u);

    constexpr std::uint64_t kFireAt = 10;
    std::uint64_t polls = 0;
    rnr::Replayer rep = replayer(run, patched, 2,
                                 [&polls] { return ++polls >= kFireAt; });
    std::uint64_t loads_after_abort = 0;
    rep.setLoadHook([&](sim::CoreId, std::uint64_t) {
        loads_after_abort += polls >= kFireAt;
    });
    EXPECT_THROW(rep.run(), rnr::ReplayAborted);
    EXPECT_EQ(polls, kFireAt); // no interval started after the abort
    EXPECT_EQ(loads_after_abort, 0u);
}

TEST(Replayer, DivergenceMatchesTheOneWorkerReplay)
{
    const check::Recorded run = recordOpt("fft", 4, 1024);
    std::vector<rnr::CoreLog> patched = check::patchedLogs(run, 0);

    // Same corruption idiom as the divergence tests of test_divergence:
    // prepend an entry whose kind cannot match the core's first
    // instruction.
    const sim::CoreId core = 2;
    const isa::Instruction &first =
        run.program.at(run.program.entryFor(core));
    const rnr::LogEntry bogus = first.isStore()
                                    ? rnr::LogEntry::reorderedLoad(0xdead)
                                    : rnr::LogEntry::dummyStore();
    auto &entries = patched[core].intervals[0].entries;
    entries.insert(entries.begin(), bogus);

    rnr::DivergenceReport walk_report;
    try {
        replayer(run, patched).run();
        FAIL() << "the one-worker replay accepted a corrupt log";
    } catch (const rnr::ReplayDivergence &d) {
        walk_report = d.report();
    }

    for (const std::uint32_t workers : {2u, 8u}) {
        try {
            replayer(run, patched, workers).run();
            FAIL() << "the fanned-out replay accepted a corrupt log";
        } catch (const rnr::ReplayDivergence &d) {
            const rnr::DivergenceReport &r = d.report();
            EXPECT_EQ(r.core, walk_report.core);
            EXPECT_EQ(r.intervalIndex, walk_report.intervalIndex);
            EXPECT_EQ(r.entryIndex, walk_report.entryIndex);
            EXPECT_EQ(r.pc, walk_report.pc);
            EXPECT_EQ(r.entry, walk_report.entry);
            EXPECT_EQ(r.expected, walk_report.expected);
            EXPECT_EQ(r.actual, walk_report.actual);
            EXPECT_EQ(r.timestamp, walk_report.timestamp);
            EXPECT_EQ(r.orderPosition, walk_report.orderPosition);
            EXPECT_FALSE(r.recentSteps.empty());
        }
    }
}

TEST(ReplayerDeathTest, RunIsSingleUse)
{
    const check::Recorded run = recordOpt("lu", 2, 1024);
    rnr::Replayer rep = replayer(run, check::patchedLogs(run, 0));
    rep.run();
    EXPECT_DEATH(rep.run(), "single-use");
}

} // namespace
