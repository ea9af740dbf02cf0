/**
 * @file
 * google-benchmark microbenchmarks of the RelaxReplay components: the
 * per-event costs of the recorder datapath (signature insert/lookup,
 * Snoop Table, log packing, patching) and the end-to-end simulation /
 * replay throughput. These quantify the *simulator's* software costs;
 * the modeled hardware costs are the structure sizes of Table 1.
 */

#include <benchmark/benchmark.h>

#include "isa/assembler.hh"
#include "machine/machine.hh"
#include "rnr/patcher.hh"
#include "rnr/replayer.hh"
#include "rnr/signature.hh"
#include "rnr/snoop_table.hh"
#include "sim/rng.hh"
#include "workloads/kernels.hh"

namespace
{

using namespace rr;

void
BM_SignatureInsert(benchmark::State &state)
{
    rnr::Signature sig(4, 256, 1);
    sim::Rng rng(1);
    for (auto _ : state) {
        sig.insert(rng.next() & ~31ULL);
        benchmark::DoNotOptimize(sig.population());
    }
}
BENCHMARK(BM_SignatureInsert);

void
BM_SignatureLookup(benchmark::State &state)
{
    rnr::Signature sig(4, 256, 1);
    sim::Rng rng(1);
    for (int i = 0; i < 32; ++i)
        sig.insert(rng.next() & ~31ULL);
    for (auto _ : state) {
        const bool hit = sig.mightContain(rng.next() & ~31ULL);
        benchmark::DoNotOptimize(hit);
    }
}
BENCHMARK(BM_SignatureLookup);

void
BM_SnoopTableBumpAndCheck(benchmark::State &state)
{
    rnr::SnoopTable table(64);
    sim::Rng rng(2);
    const auto counts = table.read(0x1000);
    for (auto _ : state) {
        table.bump(rng.next() & ~31ULL);
        const bool conflict = table.conflictSince(0x1000, counts);
        benchmark::DoNotOptimize(conflict);
    }
}
BENCHMARK(BM_SnoopTableBumpAndCheck);

rnr::CoreLog
syntheticLog(std::size_t intervals)
{
    sim::Rng rng(3);
    rnr::CoreLog log;
    for (std::size_t i = 0; i < intervals; ++i) {
        rnr::IntervalRecord iv;
        iv.entries.push_back(rnr::LogEntry::inorderBlock(rng.below(5000)));
        if (i > 0 && rng.chance(1, 4)) {
            iv.entries.push_back(rnr::LogEntry::reorderedStore(
                rng.next() & 0xffffffffffffULL, rng.next(), 1));
        }
        iv.entries.push_back(rnr::LogEntry::reorderedLoad(rng.next()));
        iv.cisn = i;
        iv.timestamp = i * 100;
        log.intervals.push_back(iv);
    }
    return log;
}

void
BM_LogPack(benchmark::State &state)
{
    const rnr::CoreLog log = syntheticLog(256);
    for (auto _ : state) {
        const auto packed = rnr::pack(log);
        benchmark::DoNotOptimize(packed.bitCount);
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_LogPack);

void
BM_LogUnpack(benchmark::State &state)
{
    const auto packed = rnr::pack(syntheticLog(256));
    for (auto _ : state) {
        const auto log = rnr::unpack(packed);
        benchmark::DoNotOptimize(log.intervals.size());
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_LogUnpack);

void
BM_LogPatch(benchmark::State &state)
{
    const rnr::CoreLog log = syntheticLog(256);
    for (auto _ : state) {
        const auto patched = rnr::patch(log);
        benchmark::DoNotOptimize(patched.intervals.size());
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_LogPatch);

void
BM_FunctionalInterpreter(benchmark::State &state)
{
    isa::Assembler a;
    a.li(3, 1000);
    a.li(4, 0x10000);
    a.label("loop");
    a.ld(5, 4, 0);
    a.addi(5, 5, 1);
    a.st(5, 4, 0);
    a.addi(3, 3, -1);
    a.bne(3, 0, "loop");
    a.halt();
    const isa::Program p = a.assemble();
    // Built once: a fresh image per iteration would time its memset.
    mem::BackingStore m(p);
    for (auto _ : state) {
        // The whole loop is one block: one isa::run() call, as replay
        // runs an InorderBlock.
        isa::ExecContext ctx;
        std::uint64_t loads = 0;
        const std::uint64_t ran = isa::run(
            p, ctx, m, ~std::uint64_t{0}, [&](std::uint64_t) { ++loads; });
        benchmark::DoNotOptimize(loads);
        state.SetItemsProcessed(state.items_processed() + ran);
    }
}
BENCHMARK(BM_FunctionalInterpreter);

void
BM_SimulatedMachineThroughput(benchmark::State &state)
{
    // Instructions simulated per second for a 4-core fft recording.
    workloads::WorkloadParams wp;
    wp.numThreads = 4;
    wp.scale = 1;
    const auto w = workloads::buildKernel("fft", wp);
    sim::MachineConfig cfg;
    cfg.numCores = 4;
    std::vector<sim::RecorderConfig> pol(1);
    pol[0].mode = sim::RecorderMode::Opt;
    for (auto _ : state) {
        machine::Machine m(cfg, w.program, pol);
        auto res = m.run();
        benchmark::DoNotOptimize(res.cycles);
        state.SetItemsProcessed(state.items_processed() +
                                res.totalInstructions);
    }
}
BENCHMARK(BM_SimulatedMachineThroughput)->Unit(benchmark::kMillisecond);

void
BM_ReplayThroughput(benchmark::State &state)
{
    workloads::WorkloadParams wp;
    wp.numThreads = 4;
    wp.scale = 1;
    const auto w = workloads::buildKernel("fft", wp);
    sim::MachineConfig cfg;
    cfg.numCores = 4;
    std::vector<sim::RecorderConfig> pol(1);
    pol[0].mode = sim::RecorderMode::Opt;
    machine::Machine m(cfg, w.program, pol);
    const mem::BackingStore initial = m.initialMemory();
    auto rec = m.run();
    std::vector<rnr::CoreLog> patched;
    for (auto &log : rec.logs[0])
        patched.push_back(rnr::patch(std::move(log)));
    for (auto _ : state) {
        rnr::Replayer rep(w.program, patched, initial.clone());
        auto res = rep.run();
        benchmark::DoNotOptimize(res.instructions);
        state.SetItemsProcessed(state.items_processed() +
                                res.instructions);
    }
}
BENCHMARK(BM_ReplayThroughput)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
