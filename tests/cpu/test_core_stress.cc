/**
 * @file
 * Stress scenarios for the OoO core's trickier machinery: long
 * dependency chains through retired producers, subroutine-heavy code
 * (Jr fetch stalls), NMI-group accounting across mispredict squashes,
 * and structural back-pressure (tiny write buffer / LSQ).
 */

#include <gtest/gtest.h>

#include <memory>

#include "cpu/core.hh"
#include "isa/assembler.hh"
#include "mem/backing_store.hh"
#include "mem/memory_system.hh"
#include "rnr/mrr_hub.hh"

namespace
{

using namespace rr;
using isa::Assembler;
using isa::Program;

/** Single/multi-core harness with an attached MRR hub per core. */
struct Rig
{
    explicit Rig(Program p, sim::MachineConfig machine_cfg,
                 std::uint32_t cores = 1)
        : prog(std::move(p)), cfg(machine_cfg), backing(prog)
    {
        cfg.numCores = cores;
        mem = mem::createMemorySystem(cfg, backing, clock);
        sim::RecorderConfig rc;
        for (sim::CoreId c = 0; c < cores; ++c) {
            coreList.push_back(std::make_unique<cpu::Core>(
                c, cfg, prog, *mem, clock));
            hubs.push_back(std::make_unique<rnr::MrrHub>(
                c, std::vector<sim::RecorderConfig>{rc}, clock,
                cfg.coherence));
            coreList[c]->addListener(hubs[c].get());
            mem->addObserver(hubs[c].get());
            coreList[c]->start(c, cores);
        }
    }

    void
    run(sim::Cycle max = 5'000'000)
    {
        for (sim::Cycle cy = 0; cy < max; ++cy) {
            mem->tick(cy);
            bool done = mem->quiescent();
            for (auto &c : coreList) {
                c->tick(cy);
                done = done && c->quiescent();
            }
            if (done && mem->quiescent())
                return;
        }
        FAIL() << "did not quiesce";
    }

    Program prog;
    sim::MachineConfig cfg;
    mem::BackingStore backing;
    mem::StampClock clock;
    std::unique_ptr<mem::MemorySystem> mem;
    std::vector<std::unique_ptr<cpu::Core>> coreList;
    std::vector<std::unique_ptr<rnr::MrrHub>> hubs;
};

TEST(CoreStress, LongChainThroughRetiredProducers)
{
    // A multiply chain long enough that producers retire long before
    // some consumers issue (exercises the retired-results path).
    Assembler a;
    a.li(3, 3);
    for (int i = 0; i < 300; ++i)
        a.mul(3, 3, 3); // value wraps mod 2^64; interpreter is golden
    a.halt();
    Program p = a.assemble();

    Rig rig(p, sim::MachineConfig{});
    rig.run();

    mem::BackingStore gm(p);
    isa::ExecContext golden;
    golden.pc = 0;
    while (!golden.halted)
        isa::step(p, golden, gm);
    EXPECT_EQ(rig.coreList[0]->archReg(3), golden.regs[3]);
}

TEST(CoreStress, NestedSubroutinesViaJalJr)
{
    // fn2 called from fn1 called from a loop; Jr return addresses flow
    // through registers and memory.
    Assembler a;
    a.li(3, 0);   // accumulator
    a.li(4, 25);  // iterations
    a.label("loop");
    a.jal(9, "fn1");
    a.addi(4, 4, -1);
    a.bne(4, 0, "loop");
    a.halt();
    a.label("fn1");
    a.li(10, 0x12000);
    a.st(9, 10, 0); // spill return address
    a.jal(9, "fn2");
    a.addi(3, 3, 1);
    a.li(10, 0x12000);
    a.ld(9, 10, 0); // reload return address
    a.jr(9);
    a.label("fn2");
    a.addi(3, 3, 2);
    a.jr(9);
    Program p = a.assemble();

    Rig rig(p, sim::MachineConfig{});
    rig.run();
    EXPECT_EQ(rig.coreList[0]->archReg(3), 25u * 3);
}

TEST(CoreStress, NmiAccountingSurvivesMispredicts)
{
    // Long non-memory stretches (forcing NMI-group pseudo entries) mixed
    // with unpredictable branches (forcing squashes that must restore
    // the NMI counter). The recorder invariant: log instruction count
    // equals retired instructions.
    Assembler a;
    a.li(3, 0x13000);
    a.li(4, 120); // iterations
    a.li(5, 1);   // lfsr-ish state
    a.label("loop");
    // ~20 non-memory instructions (exceeds the 15-instruction NMI cap).
    for (int i = 0; i < 10; ++i) {
        a.slli(6, 5, 1);
        a.xor_(5, 5, 6);
    }
    // Unpredictable branch on the mixed state.
    a.andi(6, 5, 1);
    a.beq(6, 0, "even");
    a.st(5, 3, 0);
    a.jmp("next");
    a.label("even");
    a.ld(7, 3, 0);
    a.label("next");
    a.addi(4, 4, -1);
    a.bne(4, 0, "loop");
    a.halt();
    Program p = a.assemble();

    Rig rig(p, sim::MachineConfig{});
    rig.run();

    EXPECT_GT(rig.coreList[0]->stats().counterValue("mispredicts"), 0u);
    rnr::LogStats stats;
    stats.accumulate(rig.hubs[0]->recorder(0).log());
    EXPECT_EQ(stats.instructions(), rig.coreList[0]->retired());
}

TEST(CoreStress, TinyWriteBufferBackPressure)
{
    sim::MachineConfig cfg;
    cfg.core.writeBufferEntries = 2;
    Assembler a;
    a.li(3, 0x14000);
    for (int i = 0; i < 40; ++i) {
        a.li(4, i + 1);
        a.st(4, 3, (i % 16) * 8);
    }
    a.halt();
    Program p = a.assemble();
    Rig rig(p, cfg);
    rig.run();
    EXPECT_GT(rig.coreList[0]->stats().counterValue("wb_full_stalls"),
              0u);
    for (int i = 24; i < 40; ++i) // last writer of each slot wins
        EXPECT_EQ(rig.backing.read64(0x14000 + (i % 16) * 8),
                  static_cast<std::uint64_t>(i + 1));
}

TEST(CoreStress, TinyLsqBackPressure)
{
    sim::MachineConfig cfg;
    cfg.core.lsqEntries = 4;
    Assembler a;
    a.li(3, 0x15000);
    a.li(5, 0);
    for (int i = 0; i < 30; ++i) {
        a.st(0, 3, i * 8);
        a.ld(4, 3, i * 8);
        a.add(5, 5, 4);
    }
    a.halt();
    Program p = a.assemble();
    Rig rig(p, cfg);
    rig.run();
    EXPECT_GT(rig.coreList[0]->stats().counterValue("lsq_full_stalls"),
              0u);
    EXPECT_EQ(rig.coreList[0]->archReg(5), 0u);
}

TEST(CoreStress, FenceHeavyCodeIsExact)
{
    Assembler a;
    a.li(3, 0x16000);
    a.li(5, 0);
    for (int i = 0; i < 20; ++i) {
        a.li(4, i * 7 + 1);
        a.st(4, 3, 0);
        a.fence();
        a.ld(6, 3, 0);
        a.add(5, 5, 6);
        a.fence();
    }
    a.halt();
    Program p = a.assemble();
    Rig rig(p, sim::MachineConfig{});
    rig.run();
    std::uint64_t expect = 0;
    for (int i = 0; i < 20; ++i)
        expect += i * 7 + 1;
    EXPECT_EQ(rig.coreList[0]->archReg(5), expect);
}

TEST(CoreStress, RecorderSeesEveryRetiredInstructionMultiCore)
{
    // Two racing cores; per-core hub logs must each account for exactly
    // that core's retired instructions.
    Assembler a;
    a.li(3, 0x17000);
    a.li(4, 200);
    a.label("loop");
    a.fadd(5, 29, 3, 0);
    a.ld(6, 3, 8);
    a.addi(6, 6, 1);
    a.st(6, 3, 8);
    a.addi(4, 4, -1);
    a.bne(4, 0, "loop");
    a.halt();
    Program p = a.assemble();
    Rig rig(p, sim::MachineConfig{}, 2);
    rig.run();
    for (int c = 0; c < 2; ++c) {
        rnr::LogStats stats;
        stats.accumulate(rig.hubs[c]->recorder(0).log());
        EXPECT_EQ(stats.instructions(), rig.coreList[c]->retired())
            << "core " << c;
    }
}

} // namespace
