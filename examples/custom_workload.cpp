/**
 * @file
 * Building a custom workload with the KernelBuilder DSL and comparing
 * all four recorder configurations on it. The workload is a small
 * producer/consumer pipeline: producers push work items into a
 * lock-protected ring buffer, consumers pop and process them, with a
 * final barrier — a sharing pattern distinct from the bundled kernels.
 */

#include <cstdio>

#include "machine/machine.hh"
#include "rnr/log.hh"
#include "workloads/runtime.hh"

using namespace rr;
using workloads::KernelBuilder;

namespace
{

workloads::Workload
pipeline(std::uint32_t threads, std::uint64_t items_per_producer)
{
    workloads::WorkloadParams params;
    params.numThreads = threads;
    KernelBuilder k("pipeline", params);
    isa::Assembler &a = k.a();

    const std::uint64_t slots = 16;
    // A FIFO-fair ticket lock: with a plain test-and-set lock the
    // consumers' release/re-acquire loop convoys and starves the
    // producers (deterministically, in a simulator!).
    const sim::Addr lock = k.allocTicketLock("lock");
    const sim::Addr head = k.alloc("head", 1); // next free slot
    const sim::Addr tail = k.alloc("tail", 1); // next item to consume
    const sim::Addr ring = k.alloc("ring", slots);
    const sim::Addr done = k.alloc("done", threads * 4);

    // Even threads produce, odd threads consume.
    k.emitPreamble();
    k.loadImm(10, lock);
    k.loadImm(11, head);
    k.loadImm(12, tail);
    k.loadImm(13, ring);
    a.andi(3, 1, 1);
    a.bne(3, 0, "consumer");

    // --- producer: push items_per_producer items ---
    a.li(4, 0); // produced so far
    a.label("produce");
    k.ticketAcquire(10);
    a.ld(5, 11, 0); // head
    a.ld(6, 12, 0); // tail
    a.sub(7, 5, 6);
    a.li(8, static_cast<std::int64_t>(slots));
    a.bge(7, 8, "ring_full"); // full: retry
    // ring[head % slots] = tid*1000 + item
    a.andi(7, 5, static_cast<std::int64_t>(slots - 1));
    a.slli(7, 7, 3);
    a.add(7, 7, 13);
    a.li(8, 1000);
    a.mul(8, 1, 8);
    a.add(8, 8, 4);
    a.st(8, 7, 0);
    a.addi(5, 5, 1);
    a.st(5, 11, 0); // head++
    k.ticketRelease(10);
    a.addi(4, 4, 1);
    k.loadImm(8, items_per_producer);
    a.blt(4, 8, "produce");
    a.jmp("finish");
    a.label("ring_full");
    k.ticketRelease(10);
    k.pause(); // let a consumer in (hammering would starve remote cores)
    a.jmp("produce");

    // --- consumer: pop until its share is consumed ---
    a.label("consumer");
    a.li(4, 0); // consumed so far
    a.li(9, 0); // checksum
    a.label("consume");
    k.ticketAcquire(10);
    a.ld(5, 11, 0); // head
    a.ld(6, 12, 0); // tail
    a.bge(6, 5, "ring_empty"); // empty: retry
    a.andi(7, 6, static_cast<std::int64_t>(slots - 1));
    a.slli(7, 7, 3);
    a.add(7, 7, 13);
    a.ld(8, 7, 0); // item
    a.addi(6, 6, 1);
    a.st(6, 12, 0); // tail++
    k.ticketRelease(10);
    a.xor_(9, 9, 8);
    a.addi(4, 4, 1);
    k.loadImm(8, items_per_producer);
    a.blt(4, 8, "consume");
    a.jmp("finish");
    a.label("ring_empty");
    k.ticketRelease(10);
    k.pause(); // let a producer in
    a.jmp("consume");

    // --- join ---
    a.label("finish");
    a.slli(7, 1, 5);
    k.loadImm(8, done);
    a.add(7, 7, 8);
    a.st(9, 7, 0); // publish checksum (producers publish 0)
    k.barrier();
    a.halt();
    return k.finish();
}

} // namespace

int
main()
{
    const std::uint32_t threads = 4; // 2 producers + 2 consumers
    auto w = pipeline(threads, 64);
    std::printf("custom workload '%s': %zu instructions of code\n",
                w.name.c_str(), (size_t)w.program.size());

    sim::MachineConfig cfg;
    cfg.numCores = threads;
    machine::Machine m(cfg, w.program, sim::fourPolicies());
    auto rec = m.run();

    std::printf("recorded %llu instructions in %llu cycles "
                "(IPC %.2f per core)\n",
                (unsigned long long)rec.totalInstructions,
                (unsigned long long)rec.cycles,
                (double)rec.totalInstructions / rec.cycles / threads);

    std::printf("\n%-10s %10s %10s %12s %12s\n", "config", "intervals",
                "reordered", "log bits", "bits/kinst");
    for (int p = 0; p < sim::kNumPolicies; ++p) {
        rnr::LogStats s;
        for (const auto &log : rec.logs[p])
            s.accumulate(log);
        std::printf("%-10s %10llu %10llu %12llu %12.1f\n",
                    sim::policyName(p),
                    (unsigned long long)s.intervals,
                    (unsigned long long)s.reordered(),
                    (unsigned long long)s.totalBits,
                    1000.0 * s.totalBits / rec.totalInstructions);
    }

    // Sanity: the XOR of everything produced equals the XOR of the
    // consumers' checksums — every item was consumed exactly once.
    std::uint64_t produced_xor = 0;
    for (std::uint64_t t = 0; t < threads; t += 2) {
        for (std::uint64_t i = 0; i < 64; ++i)
            produced_xor ^= t * 1000 + i;
    }
    std::uint64_t consumed_xor = 0;
    const sim::Addr done = w.regions.at("done");
    for (std::uint64_t t = 1; t < threads; t += 2)
        consumed_xor ^= m.memory().read64(done + t * 32);
    std::printf("\npipeline integrity: %s\n",
                produced_xor == consumed_xor ? "OK" : "MISMATCH");
    return produced_xor == consumed_xor ? 0 : 1;
}
