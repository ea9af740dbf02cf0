#include <gtest/gtest.h>

#include "machine/machine.hh"
#include "workloads/kernels.hh"

namespace
{

using namespace rr;
using workloads::WorkloadParams;

TEST(Kernels, RegistryIsComplete)
{
    const auto &names = workloads::kernelNames();
    EXPECT_EQ(names.size(), 10u);
    WorkloadParams p;
    p.numThreads = 2;
    p.scale = 1;
    for (const auto &name : names) {
        auto w = workloads::buildKernel(name, p);
        EXPECT_EQ(w.name, name);
        EXPECT_GT(w.program.size(), 10u) << name;
        EXPECT_EQ(w.numThreads, 2u);
    }
}

TEST(Kernels, FootprintCoversEveryRegionAndInitialWord)
{
    // The memory image spans [0, Program::memoryBytes) and never grows,
    // so the builder's footprint must cover its whole layout.
    for (const auto &name : workloads::kernelNames()) {
        for (const std::uint32_t threads : {1u, 4u, 8u}) {
            SCOPED_TRACE(name + "/" + std::to_string(threads));
            WorkloadParams p;
            p.numThreads = threads;
            p.scale = 1;
            const workloads::Workload w = workloads::buildKernel(name, p);
            const std::uint64_t bytes = w.program.memoryBytes;
            for (const auto &[region, base] : w.regions)
                EXPECT_LT(base, bytes) << region;
            for (const auto &[addr, value] : w.program.initialData)
                EXPECT_LE(addr + sim::kWordBytes, bytes) << addr;
        }
    }
}

TEST(KernelsDeathTest, UnknownNameIsFatal)
{
    WorkloadParams p;
    EXPECT_EXIT(workloads::buildKernel("nope", p),
                testing::ExitedWithCode(1), "unknown");
}

TEST(Kernels, ScaleGrowsWork)
{
    WorkloadParams small;
    small.numThreads = 2;
    small.scale = 1;
    WorkloadParams big = small;
    big.scale = 2;
    for (const char *name : {"fft", "radix", "cholesky"}) {
        sim::RecorderConfig rc;
        sim::MachineConfig cfg;
        cfg.numCores = 2;
        machine::Machine m1(cfg, workloads::buildKernel(name, small).program,
                            {rc});
        machine::Machine m2(cfg, workloads::buildKernel(name, big).program,
                            {rc});
        auto r1 = m1.run(100'000'000ULL);
        auto r2 = m2.run(100'000'000ULL);
        EXPECT_GT(r2.totalInstructions, r1.totalInstructions) << name;
    }
}

/** Every kernel must run to completion on various thread counts. */
class KernelRunTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{
};

TEST_P(KernelRunTest, RunsToCompletion)
{
    const auto &[name, threads] = GetParam();
    WorkloadParams p;
    p.numThreads = threads;
    p.scale = 1;
    auto w = workloads::buildKernel(name, p);

    sim::MachineConfig cfg;
    cfg.numCores = threads;
    sim::RecorderConfig rc;
    machine::Machine m(cfg, w.program, {rc});
    auto res = m.run(200'000'000ULL);
    EXPECT_GT(res.totalInstructions, 0u);
    for (const auto &core : res.cores)
        EXPECT_GT(core.retiredInstructions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelRunTest,
    ::testing::Combine(::testing::ValuesIn(workloads::kernelNames()),
                       ::testing::Values(2, 4)),
    [](const auto &info) {
        std::string name = std::get<0>(info.param);
        for (auto &c : name) {
            if (c == '-')
                c = '_';
        }
        return name + "_t" + std::to_string(std::get<1>(info.param));
    });

TEST(Kernels, RadixActuallySorts)
{
    // The scatter output must be a bucket-ordered permutation of the
    // keys: every key lands in its bucket's contiguous range.
    WorkloadParams p;
    p.numThreads = 2;
    p.scale = 1;
    auto w = workloads::buildKernel("radix", p);
    sim::MachineConfig cfg;
    cfg.numCores = 2;
    sim::RecorderConfig rc;
    machine::Machine m(cfg, w.program, {rc});
    auto res = m.run(200'000'000ULL);
    (void)res;
    const std::uint64_t n = w.program.initialData.size(); // the keys
    const sim::Addr out_base = w.regions.at("out");
    std::uint64_t prev_bucket = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t v = m.memory().read64(out_base + i * 8);
        const std::uint64_t b = v & 15;
        EXPECT_GE(b, prev_bucket) << "output not bucket-sorted at " << i;
        prev_bucket = b;
    }
}

TEST(Kernels, DeterministicAcrossRuns)
{
    // Same program, same config: bit-identical execution.
    WorkloadParams p;
    p.numThreads = 4;
    p.scale = 1;
    for (const char *name : {"fft", "barnes", "water-sp"}) {
        auto w = workloads::buildKernel(name, p);
        sim::MachineConfig cfg;
        cfg.numCores = 4;
        sim::RecorderConfig rc;
        machine::Machine m1(cfg, w.program, {rc});
        machine::Machine m2(cfg, w.program, {rc});
        auto r1 = m1.run(200'000'000ULL);
        auto r2 = m2.run(200'000'000ULL);
        EXPECT_EQ(r1.cycles, r2.cycles) << name;
        EXPECT_EQ(r1.memoryFingerprint, r2.memoryFingerprint) << name;
        for (std::size_t c = 0; c < r1.cores.size(); ++c)
            EXPECT_EQ(r1.cores[c].loadValueHash, r2.cores[c].loadValueHash)
                << name << " core " << c;
    }
}

} // namespace
