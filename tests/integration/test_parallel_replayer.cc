/**
 * @file
 * Focused tests of the replay engines on real recordings, for what
 * the replay check (replay_check.hh) does not cover: that the parallel
 * engine reports the same divergence as the sequential one, that an
 * abort lands within one interval, that run() is single-use, that the
 * measured-schedule accounting is sane, and that each engine's load
 * hook sees exactly the values its result digests.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "replay_check.hh"
#include "rnr/parallel_replayer.hh"
#include "rnr/parallel_schedule.hh"
#include "rnr/replayer.hh"

namespace
{

using namespace rr;

/** A recording of @p kernel under one Opt policy with edges. */
check::Recorded
recordWithDeps(const std::string &kernel, std::uint32_t cores,
               std::uint64_t cap)
{
    check::Scenario sc;
    sc.kernel = kernel;
    sc.cores = cores;
    sc.policies = {check::policy(sim::RecorderMode::Opt, cap, true)};
    return check::record(sc);
}

rnr::ParallelReplayer
parallelReplayer(const check::Recorded &run,
                 std::vector<rnr::CoreLog> patched,
                 rnr::ParallelReplayOptions opts)
{
    return rnr::ParallelReplayer(run.program, std::move(patched),
                                 run.machine->initialMemory().clone(),
                                 std::move(opts));
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
    const check::Recorded run = recordWithDeps("fft", 2, 1024);
    rnr::Replayer rep(run.program, check::patchedLogs(run, 0),
                      run.machine->initialMemory().clone());
    HookDigest seen(2);
    rep.setLoadHook(
        [&](sim::CoreId c, std::uint64_t v) { seen.add(c, v); });
    const rnr::ReplayResult res = rep.run();
    EXPECT_EQ(res.loadHashes, seen.hashes);
    EXPECT_EQ(res.loadCounts, seen.counts);
}

TEST(LoadHook, ParallelEngineSeesWhatTheResultDigests)
{
    // Calls for one core are serialized in its program order, so the
    // per-core chains need no lock.
    const check::Recorded run = recordWithDeps("fft", 2, 1024);
    rnr::ParallelReplayOptions opts;
    opts.workers = 2;
    rnr::ParallelReplayer rep =
        parallelReplayer(run, check::patchedLogs(run, 0), opts);
    HookDigest seen(2);
    rep.setLoadHook(
        [&](sim::CoreId c, std::uint64_t v) { seen.add(c, v); });
    const rnr::ReplayResult res = rep.run();
    EXPECT_EQ(res.loadHashes, seen.hashes);
    EXPECT_EQ(res.loadCounts, seen.counts);
}

TEST(ParallelReplayer, MeasuredScheduleAccountingIsSane)
{
    const check::Recorded run = recordWithDeps("fft", 8, 1024);
    rnr::ParallelReplayOptions opts;
    opts.workers = 4;
    rnr::ReplayResult res =
        parallelReplayer(run, check::patchedLogs(run, 0), opts).run();

    EXPECT_EQ(res.workers, 4u);
    EXPECT_GT(res.wallSeconds, 0.0);
    EXPECT_GT(res.measuredSerialSeconds, 0.0);
    EXPECT_GT(res.measuredSpanSeconds, 0.0);
    // The span can never beat the critical path nor the worker count,
    // and can never exceed the serial work.
    EXPECT_LE(res.measuredSpanSeconds, res.measuredSerialSeconds + 1e-9);
    EXPECT_LE(res.measuredSerialSeconds / res.measuredSpanSeconds,
              4.0 + 1e-9);

    EXPECT_EQ(res.engineStats.counterValue("intervals_replayed"),
              res.intervals);
    EXPECT_GT(res.engineStats.counterValue("segments"), 0u);
    EXPECT_LE(res.engineStats.counterValue("segments"), res.intervals);
    EXPECT_GT(res.engineStats.counterValue("tasks_run"), 0u);
    EXPECT_GT(res.engineStats.counterValue("words_committed"), 0u);
    EXPECT_EQ(res.engineStats.scalar("worker_busy_seconds").count(), 4u);
}

TEST(ParallelReplayer, AbortLandsWithinOneIntervalOfASegment)
{
    // One core records no cross-core edges, so its whole chain is one
    // segment — one task. Cancellation must still be polled before
    // every interval, not once per task.
    const check::Recorded run = recordWithDeps("fft", 1, 128);
    const std::vector<rnr::CoreLog> patched = check::patchedLogs(run, 0);
    const rnr::SegmentDag dag = rnr::buildSegmentDag(patched);
    ASSERT_EQ(dag.segments.size(), 1u);
    ASSERT_GT(dag.intervals, 20u);

    constexpr std::uint64_t kFireAt = 10;
    std::uint64_t polls = 0;
    rnr::ParallelReplayOptions opts;
    opts.workers = 2;
    opts.abortCheck = [&polls] { return ++polls >= kFireAt; };
    rnr::ParallelReplayer rep = parallelReplayer(run, patched, opts);
    std::uint64_t loads_after_abort = 0;
    rep.setLoadHook([&](sim::CoreId, std::uint64_t) {
        loads_after_abort += polls >= kFireAt;
    });
    EXPECT_THROW(rep.run(), rnr::ReplayAborted);
    EXPECT_EQ(polls, kFireAt); // no interval started after the abort
    EXPECT_EQ(loads_after_abort, 0u);
}

TEST(ParallelReplayer, DivergenceMatchesSequentialEngine)
{
    const check::Recorded run = recordWithDeps("fft", 4, 1024);
    std::vector<rnr::CoreLog> patched = check::patchedLogs(run, 0);

    // Same corruption idiom as the sequential divergence tests: prepend
    // an entry whose kind cannot match the core's first instruction.
    const sim::CoreId core = 2;
    const isa::Instruction &first =
        run.program.at(run.program.entryFor(core));
    const rnr::LogEntry bogus = first.isStore()
                                    ? rnr::LogEntry::reorderedLoad(0xdead)
                                    : rnr::LogEntry::dummyStore();
    auto &entries = patched[core].intervals[0].entries;
    entries.insert(entries.begin(), bogus);

    rnr::DivergenceReport seq_report;
    try {
        rnr::Replayer(run.program, patched,
                      run.machine->initialMemory().clone())
            .run();
        FAIL() << "sequential replay accepted a corrupt log";
    } catch (const rnr::ReplayDivergence &d) {
        seq_report = d.report();
    }

    for (const std::uint32_t workers : {2u, 8u}) {
        rnr::ParallelReplayOptions opts;
        opts.workers = workers;
        try {
            parallelReplayer(run, patched, opts).run();
            FAIL() << "parallel replay accepted a corrupt log";
        } catch (const rnr::ReplayDivergence &d) {
            const rnr::DivergenceReport &r = d.report();
            EXPECT_EQ(r.core, seq_report.core);
            EXPECT_EQ(r.intervalIndex, seq_report.intervalIndex);
            EXPECT_EQ(r.entryIndex, seq_report.entryIndex);
            EXPECT_EQ(r.pc, seq_report.pc);
            EXPECT_EQ(r.entry, seq_report.entry);
            EXPECT_EQ(r.expected, seq_report.expected);
            EXPECT_EQ(r.actual, seq_report.actual);
            EXPECT_EQ(r.timestamp, seq_report.timestamp);
            EXPECT_EQ(r.orderPosition, seq_report.orderPosition);
            EXPECT_FALSE(r.recentSteps.empty());
        }
    }
}

TEST(ParallelReplayerDeathTest, RunIsSingleUse)
{
    const check::Recorded run = recordWithDeps("lu", 2, 1024);
    rnr::ParallelReplayer rep =
        parallelReplayer(run, check::patchedLogs(run, 0), {});
    rep.run();
    EXPECT_DEATH(rep.run(), "single-use");
}

} // namespace
