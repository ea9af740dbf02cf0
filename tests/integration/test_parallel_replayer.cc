/**
 * @file
 * Determinism gate for the multi-threaded replay engine
 * (rnr::ParallelReplayer): for every kernel, both recorder modes, and
 * worker counts 2/4/8, the engine's final memory image, architectural
 * contexts, instruction count, per-core load-value hashes, and modelled
 * replay cost must be byte-identical to the sequential replayer's —
 * and both must match the recording. Also checks the measured-schedule
 * accounting, the engine stats surface, and that a corrupted log makes
 * both engines report the *same* divergence.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "machine/machine.hh"
#include "rnr/parallel_replayer.hh"
#include "rnr/parallel_schedule.hh"
#include "rnr/patcher.hh"
#include "rnr/replayer.hh"
#include "workloads/kernels.hh"

namespace
{

using namespace rr;

struct DepRun
{
    workloads::Workload workload;
    mem::BackingStore initial;
    machine::RecordingResult rec;
    std::vector<rnr::CoreLog> patched;
};

DepRun
recordWithDeps(const std::string &kernel, std::uint32_t cores,
               sim::RecorderMode mode, std::uint64_t max_interval)
{
    workloads::WorkloadParams wp;
    wp.numThreads = cores;
    wp.scale = 1;
    DepRun run;
    run.workload = workloads::buildKernel(kernel, wp);

    sim::MachineConfig cfg;
    cfg.numCores = cores;
    std::vector<sim::RecorderConfig> policies(1);
    policies[0].mode = mode;
    policies[0].maxIntervalInstructions = max_interval;
    policies[0].recordDependencies = true;

    machine::Machine m(cfg, run.workload.program, policies);
    run.initial = m.initialMemory();
    run.rec = m.run(500'000'000ULL);
    for (auto &log : run.rec.logs[0])
        run.patched.push_back(rnr::patch(log));
    return run;
}

rnr::ReplayResult
runSequential(const DepRun &run, std::vector<std::uint64_t> &hashes)
{
    rnr::Replayer rep(run.workload.program, run.patched,
                      run.initial.clone());
    rep.setLoadHook([&](sim::CoreId c, std::uint64_t v) {
        hashes[c] = machine::mixLoadValue(hashes[c], v);
    });
    return rep.run();
}

rnr::ReplayResult
runParallel(const DepRun &run, std::uint32_t workers,
            std::vector<std::uint64_t> &hashes)
{
    rnr::ParallelReplayOptions opts;
    opts.workers = workers;
    rnr::ParallelReplayer rep(run.workload.program, run.patched,
                              run.initial.clone(), opts);
    rep.setLoadHook([&](sim::CoreId c, std::uint64_t v) {
        hashes[c] = machine::mixLoadValue(hashes[c], v);
    });
    return rep.run();
}

void
expectBitIdentical(const DepRun &run, std::uint32_t workers)
{
    const std::size_t cores = run.rec.cores.size();
    std::vector<std::uint64_t> seq_hashes(cores, 0);
    const rnr::ReplayResult seq = runSequential(run, seq_hashes);
    std::vector<std::uint64_t> par_hashes(cores, 0);
    const rnr::ReplayResult par = runParallel(run, workers, par_hashes);

    // Both engines against the recording...
    EXPECT_EQ(seq.memory.fingerprint(), run.rec.memoryFingerprint);
    EXPECT_EQ(par.memory.fingerprint(), run.rec.memoryFingerprint);
    EXPECT_EQ(par.instructions, run.rec.totalInstructions);
    for (std::size_t c = 0; c < cores; ++c) {
        EXPECT_EQ(par_hashes[c], run.rec.cores[c].loadValueHash)
            << "core " << c;
    }

    // ...and against each other, including the full architectural
    // contexts and the (schedule-independent) modelled cost.
    EXPECT_EQ(par.instructions, seq.instructions);
    EXPECT_EQ(par.intervals, seq.intervals);
    EXPECT_EQ(par.cost.userCycles, seq.cost.userCycles);
    EXPECT_EQ(par.cost.osCycles, seq.cost.osCycles);
    EXPECT_EQ(par_hashes, seq_hashes);

    // The engines' own per-core load digests agree with what the
    // observer hook saw and with the recording's load counts.
    EXPECT_EQ(seq.loadHashes, seq_hashes);
    EXPECT_EQ(par.loadHashes, par_hashes);
    EXPECT_EQ(par.loadCounts, seq.loadCounts);
    ASSERT_EQ(par.loadCounts.size(), cores);
    for (std::size_t c = 0; c < cores; ++c)
        EXPECT_EQ(par.loadCounts[c], run.rec.cores[c].retiredLoads)
            << "core " << c;
    ASSERT_EQ(par.contexts.size(), seq.contexts.size());
    for (std::size_t c = 0; c < cores; ++c) {
        EXPECT_EQ(par.contexts[c].pc, seq.contexts[c].pc) << "core " << c;
        for (isa::Reg r = 0; r < isa::kNumRegs; ++r) {
            EXPECT_EQ(par.contexts[c].regs[r], seq.contexts[c].regs[r])
                << "core " << c << " r" << unsigned(r);
        }
    }
}

class ParallelReplayerKernels
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ParallelReplayerKernels, BitIdenticalToSequentialOpt)
{
    const DepRun run = recordWithDeps(GetParam(), 4,
                                      sim::RecorderMode::Opt, 1024);
    for (const std::uint32_t workers : {2u, 4u, 8u})
        expectBitIdentical(run, workers);
}

TEST_P(ParallelReplayerKernels, BitIdenticalToSequentialBase)
{
    const DepRun run = recordWithDeps(GetParam(), 4,
                                      sim::RecorderMode::Base, 1024);
    for (const std::uint32_t workers : {2u, 4u, 8u})
        expectBitIdentical(run, workers);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, ParallelReplayerKernels,
    ::testing::ValuesIn(rr::workloads::kernelNames()),
    [](const auto &info) {
        std::string name = info.param;
        for (auto &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

TEST(ParallelReplayer, EightCoresSmallIntervals)
{
    const DepRun run =
        recordWithDeps("ocean", 8, sim::RecorderMode::Opt, 512);
    expectBitIdentical(run, 8);
}

TEST(ParallelReplayer, MeasuredScheduleAccountingIsSane)
{
    const DepRun run =
        recordWithDeps("fft", 8, sim::RecorderMode::Opt, 1024);
    std::vector<std::uint64_t> hashes(8, 0);
    const rnr::ReplayResult res = runParallel(run, 4, hashes);

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
}

TEST(ParallelReplayer, AbortLandsWithinOneIntervalOfASegment)
{
    // One core records no cross-core edges, so its whole chain is one
    // segment — one task. Cancellation must still be polled before
    // every interval, not once per task.
    const DepRun run =
        recordWithDeps("fft", 1, sim::RecorderMode::Opt, 128);
    const rnr::SegmentDag dag = rnr::buildSegmentDag(run.patched);
    ASSERT_EQ(dag.segments.size(), 1u);
    ASSERT_GT(dag.intervals, 20u);

    constexpr std::uint64_t kFireAt = 10;
    std::uint64_t polls = 0;
    rnr::ParallelReplayOptions opts;
    opts.workers = 2;
    opts.abortCheck = [&polls] { return ++polls >= kFireAt; };
    rnr::ParallelReplayer rep(run.workload.program, run.patched,
                              run.initial.clone(), opts);
    std::uint64_t loads_after_abort = 0;
    rep.setLoadHook([&](sim::CoreId, std::uint64_t) {
        loads_after_abort += polls >= kFireAt;
    });
    EXPECT_THROW(rep.run(), rnr::ReplayAborted);
    EXPECT_EQ(polls, kFireAt); // no interval started after the abort
    EXPECT_EQ(loads_after_abort, 0u);
}

TEST(ParallelReplayer, SingleWorkerRunsInline)
{
    const DepRun run =
        recordWithDeps("lu", 4, sim::RecorderMode::Opt, 1024);
    expectBitIdentical(run, 1);
}

TEST(ParallelReplayer, DivergenceMatchesSequentialEngine)
{
    DepRun run = recordWithDeps("fft", 4, sim::RecorderMode::Opt, 1024);

    // Same corruption idiom as the sequential divergence tests: prepend
    // an entry whose kind cannot match the core's first instruction.
    const sim::CoreId core = 2;
    const isa::Program &prog = run.workload.program;
    const isa::Instruction &first = prog.at(prog.entryFor(core));
    const rnr::LogEntry bogus = first.isStore()
                                    ? rnr::LogEntry::reorderedLoad(0xdead)
                                    : rnr::LogEntry::dummyStore();
    auto &entries = run.patched[core].intervals[0].entries;
    entries.insert(entries.begin(), bogus);

    rnr::DivergenceReport seq_report;
    try {
        std::vector<std::uint64_t> hashes(4, 0);
        runSequential(run, hashes);
        FAIL() << "sequential replay accepted a corrupt log";
    } catch (const rnr::ReplayDivergence &d) {
        seq_report = d.report();
    }

    for (const std::uint32_t workers : {2u, 8u}) {
        try {
            std::vector<std::uint64_t> hashes(4, 0);
            runParallel(run, workers, hashes);
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
    const DepRun run =
        recordWithDeps("lu", 2, sim::RecorderMode::Opt, 1024);
    rnr::ParallelReplayer rep(run.workload.program, run.patched,
                              run.initial.clone(), {});
    rep.run();
    EXPECT_DEATH(rep.run(), "single-use");
}

} // namespace
