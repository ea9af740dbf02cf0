/**
 * @file
 * google-benchmark microbenchmarks of the experiment engine:
 *
 *   1. Sweep throughput scaling — the same batch of recordings fanned
 *      out through sim::parallelFor at 1/2/4/8 workers. On an N-core
 *      host the wall clock should drop close to min(N, jobs)x; on a
 *      single-core host the curves are flat (the pool adds only
 *      negligible overhead).
 *
 *   2. Signature hot-path — insert/mightContain under the access
 *      patterns the recorder actually generates. Real interval
 *      recording re-touches a small working set of lines, which is
 *      exactly what the direct-mapped line->H3-index cache exploits;
 *      the uniform-random variants measure the cache-miss (worst)
 *      case.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "machine/machine.hh"
#include "rnr/signature.hh"
#include "sim/flat_map.hh"
#include "sim/rng.hh"
#include "sim/task_pool.hh"
#include "workloads/kernels.hh"

namespace
{

using namespace rr;

std::vector<sim::RecorderConfig>
optPolicy()
{
    std::vector<sim::RecorderConfig> p(1);
    p[0].mode = sim::RecorderMode::Opt;
    p[0].maxIntervalInstructions = 4096;
    return p;
}

std::uint64_t
recordJob(const std::string &kernel)
{
    workloads::WorkloadParams wp;
    wp.numThreads = 4;
    wp.scale = 1;
    const auto w = workloads::buildKernel(kernel, wp);
    sim::MachineConfig cfg;
    cfg.numCores = 4;
    machine::Machine m(cfg, w.program, optPolicy());
    return m.run().totalInstructions;
}

/**
 * An 8-job batch (4 kernels x 2 copies) through sim::parallelFor at
 * the worker count given by the benchmark argument. Reports simulated
 * instructions/second so runs at different worker counts are directly
 * comparable.
 */
void
BM_SweepScaling(benchmark::State &state)
{
    const std::uint32_t workers =
        static_cast<std::uint32_t>(state.range(0));
    const std::vector<std::string> kernels = {"fft", "radix", "lu",
                                             "ocean"};
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        std::vector<std::uint64_t> counts(kernels.size() * 2);
        sim::parallelFor(workers, counts.size(), [&](std::size_t i) {
            counts[i] = recordJob(kernels[i % kernels.size()]);
        });
        for (std::uint64_t c : counts)
            instructions += c;
        benchmark::DoNotOptimize(counts.data());
    }
    state.counters["sim_instr/s"] = benchmark::Counter(
        static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SweepScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/** Hot working set: the recorder's common case (index cache hits). */
void
BM_SignatureInsertHotLines(benchmark::State &state)
{
    rnr::Signature sig(4, 256, 1);
    sim::Rng rng(1);
    std::vector<sim::Addr> lines;
    for (int i = 0; i < 48; ++i)
        lines.push_back((rng.next() & 0xffffff) * 32);
    std::size_t i = 0;
    for (auto _ : state) {
        sig.insert(lines[i]);
        if (++i == lines.size()) {
            i = 0;
            sig.clear(); // interval end; the index cache survives
        }
        benchmark::DoNotOptimize(sig.sizeBits());
    }
}
BENCHMARK(BM_SignatureInsertHotLines);

/** Uniform-random lines: every access misses the index cache. */
void
BM_SignatureInsertColdLines(benchmark::State &state)
{
    rnr::Signature sig(4, 256, 1);
    sim::Rng rng(1);
    int n = 0;
    for (auto _ : state) {
        sig.insert((rng.next() & 0xffffff) * 32);
        if (++n == 48) {
            n = 0;
            sig.clear();
        }
        benchmark::DoNotOptimize(sig.sizeBits());
    }
}
BENCHMARK(BM_SignatureInsertColdLines);

void
BM_SignatureLookupHotLines(benchmark::State &state)
{
    rnr::Signature sig(4, 256, 1);
    sim::Rng rng(3);
    std::vector<sim::Addr> lines;
    for (int i = 0; i < 48; ++i) {
        lines.push_back((rng.next() & 0xffffff) * 32);
        sig.insert(lines.back());
    }
    std::size_t i = 0;
    for (auto _ : state) {
        const bool hit = sig.mightContain(lines[i]);
        if (++i == lines.size())
            i = 0;
        benchmark::DoNotOptimize(hit);
    }
}
BENCHMARK(BM_SignatureLookupHotLines);

void
BM_SignatureLookupColdLines(benchmark::State &state)
{
    rnr::Signature sig(4, 256, 1);
    sim::Rng rng(3);
    for (int i = 0; i < 48; ++i)
        sig.insert((rng.next() & 0xffffff) * 32);
    for (auto _ : state) {
        const bool hit = sig.mightContain((rng.next() & 0xffffff) * 32);
        benchmark::DoNotOptimize(hit);
    }
}
BENCHMARK(BM_SignatureLookupColdLines);

int *
mapFind(std::unordered_map<std::uint64_t, int> &m, std::uint64_t k)
{
    auto it = m.find(k);
    return it == m.end() ? nullptr : &it->second;
}

int *
mapFind(sim::FlatMap<int> &m, std::uint64_t k)
{
    return m.find(k);
}

/**
 * The MSHR tracking pattern from mem::MemorySystem: a small population
 * of in-flight lines with insert-on-miss / find-per-access /
 * erase-on-fill churn. FlatMap is what the memory system uses now;
 * the std::unordered_map variant is the structure it replaced.
 */
template <typename Map>
void
mshrChurn(benchmark::State &state, Map &map)
{
    sim::Rng rng(11);
    std::vector<std::uint64_t> lines;
    for (int i = 0; i < 24; ++i)
        lines.push_back((rng.next() & 0xffff) * 32);
    std::size_t i = 0;
    for (auto _ : state) {
        const std::uint64_t line = lines[i];
        if (++i == lines.size())
            i = 0;
        auto *hit = mapFind(map, line);
        if (hit == nullptr)
            map[line] = 1;
        else if (++*hit == 4)
            map.erase(line);
        benchmark::DoNotOptimize(hit);
    }
}

void
BM_MshrMapStdUnordered(benchmark::State &state)
{
    std::unordered_map<std::uint64_t, int> map;
    mshrChurn(state, map);
}
BENCHMARK(BM_MshrMapStdUnordered);

void
BM_MshrMapFlat(benchmark::State &state)
{
    sim::FlatMap<int> map;
    mshrChurn(state, map);
}
BENCHMARK(BM_MshrMapFlat);

} // namespace

BENCHMARK_MAIN();
