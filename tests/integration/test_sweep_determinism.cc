/**
 * @file
 * The parallel experiment engine must not perturb the experiments: the
 * same app recorded through sim::parallelFor with 1 worker (inline,
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
#include "sim/task_pool.hh"
#include "workloads/kernels.hh"

namespace
{

using namespace rr;

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
    machine::Machine m(cfg, w.program, sim::fourPolicies());
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
    std::vector<RecordedRun> out(copies);
    sim::parallelFor(workers, copies, [&](std::size_t i) {
        out[i] = recordOnce(kernel, 4);
    });
    return out;
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
    std::vector<std::size_t> out(64);
    EXPECT_EQ(sim::parallelFor(8, out.size(),
                               [&out](std::size_t i) { out[i] = i * 3; }),
              8u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * 3);
}

} // namespace
