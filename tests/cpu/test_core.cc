#include <gtest/gtest.h>

#include <memory>

#include "cpu/core.hh"
#include "isa/assembler.hh"
#include "mem/backing_store.hh"
#include "mem/memory_system.hh"

namespace
{

using namespace rr;
using cpu::Core;
using isa::Assembler;
using isa::Program;

/** A single OoO core wired to a real memory system. */
class CoreHarness : public cpu::CoreListener
{
  public:
    explicit CoreHarness(Program prog, std::uint32_t cores = 1)
        : prog_(std::move(prog)), backing(prog_)
    {
        cfg.numCores = cores;
        mem = mem::createMemorySystem(cfg, backing, clock);
        for (sim::CoreId c = 0; c < cores; ++c) {
            cores_.push_back(std::make_unique<Core>(c, cfg, prog_, *mem,
                                                    clock));
            cores_[c]->addListener(this);
            cores_[c]->start(c, cores);
        }
    }

    /** Run until every core is quiescent; returns cycles used. */
    sim::Cycle
    run(sim::Cycle max = 1'000'000)
    {
        sim::Cycle cycle = 0;
        for (; cycle < max; ++cycle) {
            mem->tick(cycle);
            bool done = mem->quiescent();
            for (auto &c : cores_) {
                c->tick(cycle);
                done = done && c->quiescent();
            }
            if (done && mem->quiescent())
                return cycle;
        }
        ADD_FAILURE() << "core did not quiesce";
        return cycle;
    }

    void onRetire(const cpu::RetireInfo &info) override
    {
        retires.push_back(info);
    }

    void onSquash(sim::SeqNum survivor) override
    {
        squashes.push_back(survivor);
    }

    bool canDispatchMem() const override { return allowMemDispatch; }

    Core &core(sim::CoreId c = 0) { return *cores_[c]; }

    sim::MachineConfig cfg;
    Program prog_;
    mem::BackingStore backing;
    mem::StampClock clock;
    std::unique_ptr<mem::MemorySystem> mem;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<cpu::RetireInfo> retires;
    std::vector<sim::SeqNum> squashes;
    bool allowMemDispatch = true;
};

/** Golden model: the functional interpreter. */
isa::ExecContext
interpret(const Program &p, mem::BackingStore &m)
{
    isa::ExecContext ctx;
    ctx.pc = p.entryFor(0);
    ctx.writeReg(isa::kRegThreadId, 0);
    ctx.writeReg(isa::kRegNumThreads, 1);
    while (!ctx.halted && ctx.instructions < 1000000)
        isa::step(p, ctx, m);
    return ctx;
}

TEST(Core, MatchesInterpreterOnAluProgram)
{
    Assembler a;
    a.li(3, 100);
    a.li(4, 0);
    a.label("loop");
    a.add(4, 4, 3);
    a.mul(5, 4, 3);
    a.xor_(6, 5, 4);
    a.addi(3, 3, -1);
    a.bne(3, 0, "loop");
    a.halt();
    Program p = a.assemble();

    CoreHarness h(p);
    h.run();
    mem::BackingStore golden_mem(p);
    auto golden = interpret(p, golden_mem);
    for (int r = 0; r < 32; ++r)
        EXPECT_EQ(h.core().archReg(r), golden.regs[r]) << "r" << r;
    EXPECT_EQ(h.core().retired(), golden.instructions);
}

TEST(Core, MatchesInterpreterOnMemoryProgram)
{
    Assembler a;
    a.li(3, 0x10000);
    a.li(4, 50);
    a.label("wloop"); // write 50 words
    a.slli(5, 4, 3);
    a.add(5, 5, 3);
    a.mul(6, 4, 4);
    a.st(6, 5, 0);
    a.addi(4, 4, -1);
    a.bne(4, 0, "wloop");
    a.li(4, 50);
    a.li(7, 0);
    a.label("rloop"); // read them back, accumulate
    a.slli(5, 4, 3);
    a.add(5, 5, 3);
    a.ld(6, 5, 0);
    a.add(7, 7, 6);
    a.addi(4, 4, -1);
    a.bne(4, 0, "rloop");
    a.halt();
    Program p = a.assemble();

    CoreHarness h(p);
    h.run();
    mem::BackingStore golden_mem(p);
    auto golden = interpret(p, golden_mem);
    EXPECT_EQ(h.core().archReg(7), golden.regs[7]);
    EXPECT_EQ(h.backing.fingerprint(), golden_mem.fingerprint());
}

TEST(Core, StoreToLoadForwarding)
{
    Assembler a;
    a.li(3, 0x10000);
    a.li(4, 42);
    a.st(4, 3, 0);
    a.ld(5, 3, 0); // must forward from the in-flight store
    a.halt();
    Program p = a.assemble();
    CoreHarness h(p);
    h.run();
    EXPECT_EQ(h.core().archReg(5), 42u);
    EXPECT_GE(h.core().stats().counterValue("forwarded_loads"), 1u);
}

TEST(Core, BranchMispredictsAreSquashedCorrectly)
{
    // An alternating branch defeats the bimodal predictor; the
    // architectural result must still be exact.
    Assembler a;
    a.li(3, 40); // iterations
    a.li(4, 0);  // parity
    a.li(5, 0);  // accumulator
    a.label("loop");
    a.xori(4, 4, 1);
    a.beq(4, 0, "even");
    a.addi(5, 5, 3);
    a.jmp("next");
    a.label("even");
    a.addi(5, 5, 7);
    a.label("next");
    a.addi(3, 3, -1);
    a.bne(3, 0, "loop");
    a.halt();
    Program p = a.assemble();
    CoreHarness h(p);
    h.run();
    mem::BackingStore gm(p);
    auto golden = interpret(p, gm);
    EXPECT_EQ(h.core().archReg(5), golden.regs[5]);
    EXPECT_GT(h.core().stats().counterValue("mispredicts"), 0u);
    EXPECT_GT(h.squashes.size(), 0u);
}

TEST(Core, WrongPathLoadsAreHarmless)
{
    // The not-taken path begins with a load through an uninitialized
    // (garbage) pointer; the branch is always taken. Wrong-path fetch
    // will speculatively issue that load; it must not corrupt state.
    Assembler a;
    a.li(3, 30);
    a.li(8, 0);
    a.label("loop");
    a.addi(3, 3, -1);
    a.bne(3, 0, "cont"); // taken 29 times: predictor learns taken
    a.jmp("out");
    a.label("cont");
    a.addi(8, 8, 1);
    a.jmp("loop");
    a.label("out");
    a.ld(9, 4, 0); // r4 = 0: load from address 0 (never written)
    a.halt();
    Program p = a.assemble();
    CoreHarness h(p);
    h.run();
    EXPECT_EQ(h.core().archReg(8), 29u);
    EXPECT_EQ(h.core().archReg(9), 0u);
}

TEST(Core, FenceDrainsWriteBuffer)
{
    Assembler a;
    a.li(3, 0x10000);
    a.li(4, 7);
    a.st(4, 3, 0);
    a.fence();
    a.ld(5, 3, 0);
    a.halt();
    Program p = a.assemble();
    CoreHarness h(p);
    h.run();
    EXPECT_EQ(h.core().archReg(5), 7u);
    EXPECT_EQ(h.backing.read64(0x10000), 7u);
}

TEST(Core, AtomicsExecuteAtHead)
{
    Assembler a;
    a.li(3, 0x10000);
    a.li(4, 5);
    a.fadd(5, 4, 3, 0);
    a.fadd(6, 4, 3, 0);
    a.xchg(7, 4, 3, 0);
    a.halt();
    Program p = a.assemble();
    CoreHarness h(p);
    h.run();
    EXPECT_EQ(h.core().archReg(5), 0u);
    EXPECT_EQ(h.core().archReg(6), 5u);
    EXPECT_EQ(h.core().archReg(7), 10u);
    EXPECT_EQ(h.backing.read64(0x10000), 5u);
}

TEST(Core, JalJrSubroutine)
{
    Assembler a;
    a.li(3, 0);
    a.jal(9, "sub");
    a.jal(9, "sub");
    a.halt();
    a.label("sub");
    a.addi(3, 3, 1);
    a.jr(9);
    Program p = a.assemble();
    CoreHarness h(p);
    h.run();
    EXPECT_EQ(h.core().archReg(3), 2u);
}

TEST(Core, RetireOrderIsProgramOrder)
{
    Assembler a;
    a.li(3, 0x10000);
    a.ld(4, 3, 0);  // slow (miss)
    a.li(5, 1);     // fast
    a.li(6, 2);     // fast
    a.halt();
    Program p = a.assemble();
    CoreHarness h(p);
    h.run();
    ASSERT_EQ(h.retires.size(), 5u);
    for (std::size_t i = 1; i < h.retires.size(); ++i)
        EXPECT_LT(h.retires[i - 1].seq, h.retires[i].seq);
}

TEST(Core, RetireInfoCarriesLoadValues)
{
    Assembler a;
    a.data(0x10000, 99);
    a.li(3, 0x10000);
    a.ld(4, 3, 0);
    a.halt();
    Program p = a.assemble();
    CoreHarness h(p);
    h.run();
    bool seen = false;
    for (const auto &ri : h.retires) {
        if (ri.op == isa::Opcode::Ld) {
            EXPECT_EQ(ri.loadValue, 99u);
            seen = true;
        }
    }
    EXPECT_TRUE(seen);
}

TEST(Core, ListenerBackPressureStallsMemDispatch)
{
    Assembler a;
    a.li(3, 0x10000);
    a.ld(4, 3, 0);
    a.halt();
    Program p = a.assemble();
    CoreHarness h(p);
    h.allowMemDispatch = false;
    // Tick a while: the load must never dispatch.
    for (sim::Cycle c = 0; c < 200; ++c) {
        h.mem->tick(c);
        h.core().tick(c);
    }
    EXPECT_FALSE(h.core().halted());
    EXPECT_GT(h.core().stats().counterValue("traq_full_stalls"), 0u);
    h.allowMemDispatch = true;
    for (sim::Cycle c = 200; c < 2000 && !h.core().quiescent(); ++c) {
        h.mem->tick(c);
        h.core().tick(c);
    }
    EXPECT_TRUE(h.core().halted());
    EXPECT_EQ(h.core().archReg(4), 0u);
}

TEST(Core, LoadsBypassPendingStores)
{
    // A store to one location followed by many independent loads: the
    // loads should perform while the store is still pending (the RC
    // behaviour Figure 1 is about). Verified architecturally plus via
    // the memory traffic pattern (loads complete before store misses).
    Assembler a;
    a.li(3, 0x10000);
    a.li(4, 0x20000);
    a.li(5, 1);
    a.st(5, 3, 0); // cold store miss: slow
    for (int i = 0; i < 8; ++i)
        a.ld(static_cast<isa::Reg>(6 + i), 4, i * 8); // independent loads
    a.halt();
    Program p = a.assemble();
    CoreHarness h(p);
    sim::Cycle cycles = h.run();
    // If loads serialized behind the store the run would take at least
    // two full miss latencies; bypassing keeps it near one.
    EXPECT_LT(cycles, 2 * (8 + 12 + 150));
    EXPECT_EQ(h.backing.read64(0x10000), 1u);
}

TEST(Core, TwoCoresCommunicateThroughMemory)
{
    // Core 0 writes a flag; core 1 spins on it, then reads the data.
    Assembler a;
    a.entry(0);
    a.li(3, 0x10000);
    a.li(4, 123);
    a.st(4, 3, 8); // data
    a.fence();
    a.li(4, 1);
    a.st(4, 3, 0); // flag
    a.halt();
    a.entry(1);
    a.li(3, 0x10000);
    a.label("spin");
    a.ld(4, 3, 0);
    a.beq(4, 0, "spin");
    a.ld(5, 3, 8);
    a.halt();
    Program p = a.assemble();
    CoreHarness h(p, 2);
    h.run();
    EXPECT_EQ(h.core(1).archReg(5), 123u);
}

TEST(Core, HaltWithFullPipelineDrainsWriteBuffer)
{
    Assembler a;
    a.li(3, 0x10000);
    for (int i = 0; i < 12; ++i) {
        a.li(4, i + 1);
        a.st(4, 3, i * 8);
    }
    a.halt();
    Program p = a.assemble();
    CoreHarness h(p);
    h.run();
    for (int i = 0; i < 12; ++i)
        EXPECT_EQ(h.backing.read64(0x10000 + i * 8), std::uint64_t(i + 1));
}

} // namespace
