#include <gtest/gtest.h>

#include <vector>

#include "isa/assembler.hh"
#include "isa/program.hh"
#include "mem/backing_store.hh"

namespace
{

using namespace rr::isa;
using rr::mem::BackingStore;

/** Run a program to completion on the functional interpreter. */
ExecContext
runToHalt(const Program &p, BackingStore &mem, std::uint64_t max = 100000)
{
    ExecContext ctx;
    ctx.pc = p.entryFor(0);
    while (!ctx.halted && ctx.instructions < max)
        step(p, ctx, mem);
    EXPECT_TRUE(ctx.halted) << "program did not halt";
    return ctx;
}

TEST(Interpreter, AluArithmetic)
{
    Assembler a;
    a.li(1, 10);
    a.li(2, 3);
    a.add(3, 1, 2);
    a.sub(4, 1, 2);
    a.mul(5, 1, 2);
    a.and_(6, 1, 2);
    a.or_(7, 1, 2);
    a.xor_(8, 1, 2);
    a.halt();
    const Program p = a.assemble();
    BackingStore mem(p);
    auto ctx = runToHalt(p, mem);
    EXPECT_EQ(ctx.regs[3], 13u);
    EXPECT_EQ(ctx.regs[4], 7u);
    EXPECT_EQ(ctx.regs[5], 30u);
    EXPECT_EQ(ctx.regs[6], 2u);
    EXPECT_EQ(ctx.regs[7], 11u);
    EXPECT_EQ(ctx.regs[8], 9u);
}

TEST(Interpreter, ShiftsAndCompares)
{
    Assembler a;
    a.li(1, 0xf0);
    a.slli(2, 1, 4);
    a.srli(3, 1, 4);
    a.li(4, -1);
    a.slt(5, 4, 1);  // -1 < 0xf0 signed -> 1
    a.sltu(6, 4, 1); // max unsigned < 0xf0 -> 0
    a.halt();
    const Program p = a.assemble();
    BackingStore mem(p);
    auto ctx = runToHalt(p, mem);
    EXPECT_EQ(ctx.regs[2], 0xf00u);
    EXPECT_EQ(ctx.regs[3], 0xfu);
    EXPECT_EQ(ctx.regs[5], 1u);
    EXPECT_EQ(ctx.regs[6], 0u);
}

TEST(Interpreter, R0IsHardwiredZero)
{
    Assembler a;
    a.li(0, 99); // discarded
    a.add(1, 0, 0);
    a.halt();
    const Program p = a.assemble();
    BackingStore mem(p);
    auto ctx = runToHalt(p, mem);
    EXPECT_EQ(ctx.regs[0], 0u);
    EXPECT_EQ(ctx.regs[1], 0u);
}

TEST(Interpreter, LoadStoreRoundTrip)
{
    Assembler a;
    a.li(1, 0x2000);
    a.li(2, 1234);
    a.st(2, 1, 8);
    a.ld(3, 1, 8);
    a.halt();
    const Program p = a.assemble();
    BackingStore mem(p);
    auto ctx = runToHalt(p, mem);
    EXPECT_EQ(ctx.regs[3], 1234u);
    EXPECT_EQ(mem.read64(0x2008), 1234u);
}

TEST(Interpreter, InitialDataVisible)
{
    Assembler a;
    a.data(0x3000, 77);
    a.li(1, 0x3000);
    a.ld(2, 1, 0);
    a.halt();
    const Program p = a.assemble();
    BackingStore mem(p);
    auto ctx = runToHalt(p, mem);
    EXPECT_EQ(ctx.regs[2], 77u);
}

TEST(Interpreter, BranchLoop)
{
    Assembler a;
    a.li(1, 5);
    a.li(2, 0);
    a.label("loop");
    a.add(2, 2, 1);
    a.addi(1, 1, -1);
    a.bne(1, 0, "loop");
    a.halt();
    const Program p = a.assemble();
    BackingStore mem(p);
    auto ctx = runToHalt(p, mem);
    EXPECT_EQ(ctx.regs[2], 15u); // 5+4+3+2+1
}

TEST(Interpreter, JalAndJr)
{
    Assembler a;
    a.li(3, 0);
    a.jal(9, "fn");
    a.addi(3, 3, 100); // executed after return
    a.halt();
    a.label("fn");
    a.addi(3, 3, 1);
    a.jr(9);
    const Program p = a.assemble();
    BackingStore mem(p);
    auto ctx = runToHalt(p, mem);
    EXPECT_EQ(ctx.regs[3], 101u);
}

TEST(Interpreter, AtomicXchgReturnsOldValue)
{
    Assembler a;
    a.data(0x4000, 5);
    a.li(1, 0x4000);
    a.li(2, 9);
    a.xchg(3, 2, 1, 0);
    a.halt();
    const Program p = a.assemble();
    BackingStore mem(p);
    auto ctx = runToHalt(p, mem);
    EXPECT_EQ(ctx.regs[3], 5u);
    EXPECT_EQ(mem.read64(0x4000), 9u);
}

TEST(Interpreter, AtomicFaddAccumulates)
{
    Assembler a;
    a.li(1, 0x4000);
    a.li(2, 3);
    a.fadd(3, 2, 1, 0);
    a.fadd(4, 2, 1, 0);
    a.halt();
    const Program p = a.assemble();
    BackingStore mem(p);
    auto ctx = runToHalt(p, mem);
    EXPECT_EQ(ctx.regs[3], 0u);
    EXPECT_EQ(ctx.regs[4], 3u);
    EXPECT_EQ(mem.read64(0x4000), 6u);
}

TEST(Interpreter, HaltStopsAndCounts)
{
    Assembler a;
    a.nop();
    a.halt();
    const Program p = a.assemble();
    BackingStore mem(p);
    auto ctx = runToHalt(p, mem);
    EXPECT_EQ(ctx.instructions, 2u); // nop + halt both count
}

TEST(Interpreter, UnalignedAccessSnapsToWord)
{
    Assembler a;
    a.li(1, 0x2003); // unaligned base
    a.li(2, 55);
    a.st(2, 1, 0);
    a.halt();
    const Program p = a.assemble();
    BackingStore mem(p);
    runToHalt(p, mem);
    EXPECT_EQ(mem.read64(0x2000), 55u);
}

/** run() with a recorder of the load values it reports. */
struct Loads
{
    std::vector<std::uint64_t> seen;

    std::uint64_t
    run(const Program &p, ExecContext &ctx, BackingStore &mem,
        std::uint64_t count)
    {
        return rr::isa::run(p, ctx, mem, count,
                            [this](std::uint64_t v) { seen.push_back(v); });
    }
};

TEST(Run, R0AsDestinationStaysZero)
{
    Assembler a;
    a.data(0x5000, 7);
    a.li(0, 99);
    a.li(1, 0x5000);
    a.ld(0, 1, 0);        // the value is still reported
    a.fadd(0, 1, 1, 0);   // and written back: 7 + 0x5000
    a.jal(0, "next");
    a.label("next");
    a.addi(2, 0, 1);
    a.halt();
    const Program p = a.assemble();
    BackingStore mem(p);
    ExecContext ctx;
    Loads loads;
    EXPECT_EQ(loads.run(p, ctx, mem, 100), 7u);
    EXPECT_EQ(ctx.regs[0], 0u);
    EXPECT_EQ(ctx.regs[2], 1u);
    EXPECT_EQ(loads.seen, (std::vector<std::uint64_t>{7, 7}));
    EXPECT_EQ(mem.read64(0x5000), 7u + 0x5000);
}

TEST(Run, HaltMidBlockStopsAfterTheHalt)
{
    Assembler a;
    a.nop();
    a.nop();
    a.halt();
    a.nop();
    BackingStore mem;
    ExecContext ctx;
    Loads loads;
    EXPECT_EQ(loads.run(a.assemble(), ctx, mem, 10), 3u);
    EXPECT_TRUE(ctx.halted);
    EXPECT_EQ(ctx.pc, 2u); // a halted context stays at its Halt
    EXPECT_EQ(ctx.instructions, 3u);
}

TEST(Run, HaltAsTheLastInstructionOfTheBlock)
{
    Assembler a;
    a.li(1, 4);
    a.halt();
    BackingStore mem;
    ExecContext ctx;
    Loads loads;
    EXPECT_EQ(loads.run(a.assemble(), ctx, mem, 2), 2u);
    EXPECT_TRUE(ctx.halted);
    EXPECT_EQ(ctx.regs[1], 4u);
    EXPECT_EQ(ctx.instructions, 2u);
}

TEST(Run, CountZeroAndHaltedContextsRunNothing)
{
    Assembler a;
    a.data(0x5000, 3);
    a.li(1, 0x5000);
    a.ld(2, 1, 0);
    a.halt();
    const Program p = a.assemble();
    BackingStore mem(p);
    ExecContext ctx;
    Loads loads;
    EXPECT_EQ(loads.run(p, ctx, mem, 0), 0u);
    EXPECT_EQ(ctx.pc, 0u);
    EXPECT_EQ(ctx.instructions, 0u);
    EXPECT_FALSE(ctx.halted);

    EXPECT_EQ(loads.run(p, ctx, mem, 3), 3u);
    ASSERT_TRUE(ctx.halted);
    const ExecContext halted = ctx;
    EXPECT_EQ(loads.run(p, ctx, mem, 5), 0u);
    EXPECT_EQ(ctx.pc, halted.pc);
    EXPECT_EQ(ctx.instructions, halted.instructions);
    EXPECT_TRUE(ctx.halted);
    EXPECT_EQ(loads.seen.size(), 1u); // only the one load that ran
}

TEST(Interpreter, EvalBranchVariants)
{
    Instruction beq{Opcode::Beq, 0, 1, 2, 0};
    EXPECT_TRUE(evalBranch(beq, 5, 5));
    EXPECT_FALSE(evalBranch(beq, 5, 6));
    Instruction blt{Opcode::Blt, 0, 1, 2, 0};
    EXPECT_TRUE(evalBranch(blt, static_cast<std::uint64_t>(-1), 0));
    Instruction bge{Opcode::Bge, 0, 1, 2, 0};
    EXPECT_TRUE(evalBranch(bge, 0, static_cast<std::uint64_t>(-1)));
}

TEST(Interpreter, EvalAtomicIsTheValueWrittenBack)
{
    EXPECT_EQ(evalAtomic(Instruction{Opcode::Xchg, 1, 2, 3, 0}, 5, 9), 9u);
    EXPECT_EQ(evalAtomic(Instruction{Opcode::Fadd, 1, 2, 3, 0}, 5, 9), 14u);
}

} // namespace
