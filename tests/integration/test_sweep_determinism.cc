/**
 * @file
 * The parallel experiment engine must not perturb the experiments: the
 * same app recorded through sim::SweepRunner with 1 worker (inline,
 * serial reference) and with 8 workers must produce bit-identical
 * packed logs and memory fingerprints for every policy. Each job
 * builds its own Machine, so the only way this could fail is shared
 * mutable state leaking between concurrent recordings — exactly what
 * the test guards against.
 */

#include <gtest/gtest.h>

#include <vector>

#include "machine/machine.hh"
#include "rnr/log.hh"
#include "sim/sweep.hh"
#include "workloads/kernels.hh"

namespace
{

using namespace rr;

std::vector<sim::RecorderConfig>
fourPolicies()
{
    std::vector<sim::RecorderConfig> p(4);
    p[0].mode = sim::RecorderMode::Base;
    p[0].maxIntervalInstructions = 4096;
    p[1].mode = sim::RecorderMode::Base;
    p[1].maxIntervalInstructions = 0;
    p[2].mode = sim::RecorderMode::Opt;
    p[2].maxIntervalInstructions = 4096;
    p[3].mode = sim::RecorderMode::Opt;
    p[3].maxIntervalInstructions = 0;
    return p;
}

struct RecordedRun
{
    std::uint64_t memoryFingerprint = 0;
    std::uint64_t totalInstructions = 0;
    /** pack()ed log bytes per policy per core: the bit-exact artifact. */
    std::vector<std::vector<std::vector<std::uint8_t>>> packedLogs;
};

RecordedRun
recordOnce(const std::string &kernel, std::uint32_t cores)
{
    workloads::WorkloadParams wp;
    wp.numThreads = cores;
    wp.scale = 1;
    const auto w = workloads::buildKernel(kernel, wp);
    sim::MachineConfig cfg;
    cfg.numCores = cores;
    machine::Machine m(cfg, w.program, fourPolicies());
    const machine::RecordingResult rec = m.run();

    RecordedRun out;
    out.memoryFingerprint = rec.memoryFingerprint;
    out.totalInstructions = rec.totalInstructions;
    for (const auto &policy_logs : rec.logs) {
        std::vector<std::vector<std::uint8_t>> per_core;
        for (const auto &log : policy_logs)
            per_core.push_back(rnr::pack(log).bytes);
        out.packedLogs.push_back(std::move(per_core));
    }
    return out;
}

/** The same kernel recorded several times in one sweep batch. */
std::vector<RecordedRun>
sweepRecord(const std::string &kernel, std::uint32_t workers,
            std::size_t copies)
{
    sim::SweepRunner runner(workers);
    return sim::sweepMap<RecordedRun>(
        runner, copies,
        [&kernel](std::size_t) {
            return recordOnce(kernel, 4);
        });
}

TEST(SweepDeterminism, OneAndEightWorkersProduceIdenticalRecordings)
{
    // Several concurrent copies of the same recording maximize the
    // chance of exposing cross-job interference under 8 workers.
    for (const char *kernel : {"fft", "radix"}) {
        const std::vector<RecordedRun> serial = sweepRecord(kernel, 1, 8);
        const std::vector<RecordedRun> parallel =
            sweepRecord(kernel, 8, 8);
        ASSERT_EQ(serial.size(), parallel.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(serial[i].memoryFingerprint,
                      parallel[i].memoryFingerprint)
                << kernel << " copy " << i;
            EXPECT_EQ(serial[i].totalInstructions,
                      parallel[i].totalInstructions)
                << kernel << " copy " << i;
            ASSERT_EQ(serial[i].packedLogs.size(),
                      parallel[i].packedLogs.size());
            for (std::size_t p = 0; p < serial[i].packedLogs.size(); ++p)
                EXPECT_EQ(serial[i].packedLogs[p],
                          parallel[i].packedLogs[p])
                    << kernel << " copy " << i << " policy " << p;
        }
    }
}

TEST(SweepDeterminism, ResultsCollectInSubmissionOrder)
{
    sim::SweepRunner runner(8);
    const std::vector<std::size_t> out = sim::sweepMap<std::size_t>(
        runner, 64, [](std::size_t i) { return i * 3; });
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * 3);
}

TEST(SweepDeterminism, ThroughputStatsAccumulate)
{
    sim::SweepRunner runner(4);
    for (int i = 0; i < 10; ++i)
        runner.enqueue([&runner] { runner.countInstructions(1000); });
    const sim::SweepStats stats = runner.run();
    EXPECT_EQ(stats.jobsRun, 10u);
    EXPECT_EQ(stats.totalInstructions, 10'000u);
    EXPECT_EQ(stats.workers, 4u);
    EXPECT_GE(stats.wallSeconds, 0.0);
    EXPECT_GT(stats.instructionsPerSecond(), 0.0);
}

} // namespace
