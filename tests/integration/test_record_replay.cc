/**
 * @file
 * End-to-end determinism: record a kernel execution under every
 * recorder policy, patch the log, replay it sequentially, and require
 *  (a) every replayed load/atomic value to equal the recorded one (in
 *      per-core program order),
 *  (b) identical final memory images,
 *  (c) identical per-core instruction counts and final registers.
 * This is the property RelaxReplay exists to provide; it must hold for
 * Base and Opt, bounded (4K) and unbounded intervals, any core count,
 * and any workload.
 */

#include <gtest/gtest.h>

#include "machine/machine.hh"
#include "rnr/log.hh"
#include "rnr/patcher.hh"
#include "rnr/replayer.hh"
#include "workloads/kernels.hh"

namespace
{

using namespace rr;

struct Scenario
{
    std::string kernel;
    std::uint32_t cores;
    std::uint64_t scale;
};

void
verifyRecordReplay(const Scenario &sc)
{
    workloads::WorkloadParams wp;
    wp.numThreads = sc.cores;
    wp.scale = sc.scale;
    auto w = workloads::buildKernel(sc.kernel, wp);

    sim::MachineConfig cfg;
    cfg.numCores = sc.cores;
    std::vector<sim::RecorderConfig> policies(4);
    policies[0] = {sim::RecorderMode::Base, 4096};
    policies[1] = {sim::RecorderMode::Base, 0};
    policies[2] = {sim::RecorderMode::Opt, 4096};
    policies[3] = {sim::RecorderMode::Opt, 0};

    machine::Machine m(cfg, w.program, policies);
    const mem::BackingStore initial = m.initialMemory();
    auto rec = m.run(500'000'000ULL);
    ASSERT_GT(rec.totalInstructions, 0u);

    for (std::size_t pol = 0; pol < policies.size(); ++pol) {
        SCOPED_TRACE(testing::Message()
                     << sc.kernel << " cores=" << sc.cores << " policy="
                     << sim::toString(policies[pol].mode) << "/"
                     << policies[pol].maxIntervalInstructions);

        // The log replays exactly the retired instruction stream.
        rnr::LogStats stats;
        std::vector<rnr::CoreLog> patched;
        for (sim::CoreId c = 0; c < sc.cores; ++c) {
            rnr::LogStats per_core;
            per_core.accumulate(rec.logs[pol][c]);
            EXPECT_EQ(per_core.instructions(),
                      rec.cores[c].retiredInstructions)
                << "core " << c;
            stats += per_core;
            patched.push_back(rnr::patch(rec.logs[pol][c]));
        }

        // Serialization round-trips (the log a real system would save).
        for (sim::CoreId c = 0; c < sc.cores; ++c) {
            const auto packed = rnr::pack(rec.logs[pol][c]);
            const auto back = rnr::unpack(packed);
            ASSERT_EQ(back.intervals.size(),
                      rec.logs[pol][c].intervals.size());
        }

        rnr::Replayer rep(w.program, std::move(patched), initial.clone());
        std::vector<std::uint64_t> hashes(sc.cores, 0);
        std::vector<std::uint64_t> counts(sc.cores, 0);
        rep.setLoadHook([&](sim::CoreId c, std::uint64_t v) {
            hashes[c] = machine::mixLoadValue(hashes[c], v);
            ++counts[c];
        });
        auto res = rep.run();

        EXPECT_EQ(res.memory.fingerprint(), rec.memoryFingerprint);
        EXPECT_EQ(res.instructions, rec.totalInstructions);
        for (sim::CoreId c = 0; c < sc.cores; ++c) {
            EXPECT_EQ(counts[c], rec.cores[c].retiredLoads)
                << "core " << c;
            EXPECT_EQ(hashes[c], rec.cores[c].loadValueHash)
                << "core " << c;
            EXPECT_EQ(res.contexts[c].instructions,
                      rec.cores[c].retiredInstructions)
                << "core " << c;
            EXPECT_TRUE(res.contexts[c].halted) << "core " << c;
            for (int r = 0; r < 32; ++r) {
                EXPECT_EQ(res.contexts[c].regs[r],
                          rec.cores[c].finalRegs[r])
                    << "core " << c << " r" << r;
            }
        }
    }
}

class RecordReplayAllKernels
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(RecordReplayAllKernels, DeterministicAt4Cores)
{
    verifyRecordReplay({GetParam(), 4, 1});
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, RecordReplayAllKernels,
    ::testing::ValuesIn(rr::workloads::kernelNames()),
    [](const auto &info) {
        std::string name = info.param;
        for (auto &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

class RecordReplayCoreCounts : public ::testing::TestWithParam<int>
{
};

TEST_P(RecordReplayCoreCounts, FftAndWaterScaleWithCores)
{
    verifyRecordReplay({"fft", static_cast<std::uint32_t>(GetParam()), 1});
    verifyRecordReplay(
        {"water-nsq", static_cast<std::uint32_t>(GetParam()), 1});
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, RecordReplayCoreCounts,
                         ::testing::Values(1, 2, 4, 8, 16));

class RecordReplaySeeds : public ::testing::TestWithParam<int>
{
};

TEST_P(RecordReplaySeeds, CholeskySeedSweep)
{
    workloads::WorkloadParams wp;
    wp.numThreads = 4;
    wp.scale = 1;
    wp.seed = 1000 + GetParam();
    auto w = workloads::buildKernel("cholesky", wp);

    sim::MachineConfig cfg;
    cfg.numCores = 4;
    std::vector<sim::RecorderConfig> policies(1);
    policies[0] = {sim::RecorderMode::Opt, 0};
    machine::Machine m(cfg, w.program, policies);
    const mem::BackingStore initial = m.initialMemory();
    auto rec = m.run(500'000'000ULL);

    std::vector<rnr::CoreLog> patched;
    for (auto &log : rec.logs[0])
        patched.push_back(rnr::patch(log));
    rnr::Replayer rep(w.program, std::move(patched), initial.clone());
    auto res = rep.run();
    EXPECT_EQ(res.memory.fingerprint(), rec.memoryFingerprint);
    EXPECT_EQ(res.instructions, rec.totalInstructions);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecordReplaySeeds,
                         ::testing::Range(0, 6));

TEST(RecordReplay, LargerScaleStillDeterministic)
{
    verifyRecordReplay({"fft", 8, 4});
}

TEST(RecordReplay, DirectoryEvictionModeStaysCorrect)
{
    // Section 4.3: under directory coherence a dirty eviction costs the
    // core its snoop visibility of the line, and the Opt recorder must
    // answer with a conservative Snoop Table bump. radix at scale 8
    // evicts dirty lines on both backends: the directory machine must
    // bump and still replay exactly; the snoopy ring loses no
    // visibility, so the same evictions must not bump there.
    workloads::WorkloadParams wp;
    wp.numThreads = 4;
    wp.scale = 8;
    const auto w = workloads::buildKernel("radix", wp);
    std::vector<sim::RecorderConfig> policies(1);
    policies[0] = {sim::RecorderMode::Opt, 0};

    for (const sim::CoherenceKind kind :
         {sim::CoherenceKind::Directory, sim::CoherenceKind::Snoopy}) {
        SCOPED_TRACE(sim::toString(kind));
        sim::MachineConfig cfg;
        cfg.numCores = 4;
        cfg.coherence = kind;
        machine::Machine m(cfg, w.program, policies);
        const mem::BackingStore initial = m.initialMemory();
        auto rec = m.run(500'000'000ULL);

        std::uint64_t bumps = 0;
        for (sim::CoreId c = 0; c < cfg.numCores; ++c)
            bumps += m.hub(c).recorder(0).stats().counterValue(
                "dirty_eviction_bumps");
        if (kind == sim::CoherenceKind::Directory) {
            EXPECT_GT(bumps, 0u);
        } else {
            EXPECT_GT(m.memorySystem().stats().counterValue(
                          "l1_evictions"),
                      0u);
            EXPECT_EQ(bumps, 0u);
        }

        std::vector<rnr::CoreLog> patched;
        for (auto &log : rec.logs[0])
            patched.push_back(rnr::patch(log));
        rnr::Replayer rep(w.program, std::move(patched), initial.clone());
        const auto res = rep.run();
        EXPECT_EQ(res.memory.fingerprint(), rec.memoryFingerprint);
        EXPECT_EQ(res.instructions, rec.totalInstructions);
        for (sim::CoreId c = 0; c < cfg.numCores; ++c)
            EXPECT_EQ(res.loadHashes[c], rec.cores[c].loadValueHash);
    }
}

TEST(RecordReplay, TinyTraqStressesBackPressure)
{
    // An 8-entry TRAQ forces constant dispatch stalls; correctness must
    // be unaffected.
    workloads::WorkloadParams wp;
    wp.numThreads = 2;
    wp.scale = 1;
    auto w = workloads::buildKernel("lu", wp);

    sim::MachineConfig cfg;
    cfg.numCores = 2;
    std::vector<sim::RecorderConfig> policies(1);
    policies[0] = {sim::RecorderMode::Opt, 0};
    policies[0].traqEntries = 8;

    machine::Machine m(cfg, w.program, policies);
    const mem::BackingStore initial = m.initialMemory();
    auto rec = m.run(500'000'000ULL);
    EXPECT_GT(m.core(0).stats().counterValue("traq_full_stalls"), 0u);

    std::vector<rnr::CoreLog> patched;
    for (auto &log : rec.logs[0])
        patched.push_back(rnr::patch(log));
    rnr::Replayer rep(w.program, std::move(patched), initial.clone());
    auto res = rep.run();
    EXPECT_EQ(res.memory.fingerprint(), rec.memoryFingerprint);
}

TEST(RecordReplay, TinyIntervalCapStressesPatching)
{
    // A 64-instruction interval cap produces many short intervals and
    // many cross-interval stores; patching and replay must hold up.
    workloads::WorkloadParams wp;
    wp.numThreads = 4;
    wp.scale = 1;
    auto w = workloads::buildKernel("radix", wp);

    sim::MachineConfig cfg;
    cfg.numCores = 4;
    std::vector<sim::RecorderConfig> policies(1);
    policies[0] = {sim::RecorderMode::Base, 64};

    machine::Machine m(cfg, w.program, policies);
    const mem::BackingStore initial = m.initialMemory();
    auto rec = m.run(500'000'000ULL);

    rnr::LogStats stats;
    for (auto &log : rec.logs[0])
        stats.accumulate(log);
    EXPECT_GT(stats.reordered(), 0u);

    std::vector<rnr::CoreLog> patched;
    for (auto &log : rec.logs[0])
        patched.push_back(rnr::patch(log));
    rnr::Replayer rep(w.program, std::move(patched), initial.clone());
    auto res = rep.run();
    EXPECT_EQ(res.memory.fingerprint(), rec.memoryFingerprint);
    EXPECT_EQ(res.instructions, rec.totalInstructions);
}

} // namespace
