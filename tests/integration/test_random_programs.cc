/**
 * @file
 * Golden-model equivalence over randomly generated programs: a random
 * single-threaded program (ALU ops, loads/stores, loops with
 * data-dependent branches, atomics) must produce on the OoO core
 * exactly the architectural state the functional interpreter produces
 * — across seeds. This exercises renaming, forwarding, squash/replay
 * and retirement corner cases that hand-written tests miss. The racing
 * multithreaded programs record and replay through the table of
 * test_replay_check.cc. The same programs check that the interpreter's
 * block loop, isa::run() over many instructions, matches it one
 * instruction at a time.
 */

#include <gtest/gtest.h>

#include <vector>

#include "machine/machine.hh"
#include "replay_check.hh"
#include "sim/rng.hh"

namespace
{

using namespace rr;
using isa::Program;

class RandomProgramGolden : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomProgramGolden, CoreMatchesInterpreter)
{
    const Program p = check::randomProgram(1000 + GetParam(), false);

    // Golden run on the functional interpreter.
    mem::BackingStore golden_mem(p);
    isa::ExecContext golden;
    golden.pc = p.entryFor(0);
    golden.writeReg(isa::kRegThreadId, 0);
    golden.writeReg(isa::kRegNumThreads, 1);
    std::uint64_t guard = 0;
    while (!golden.halted && ++guard < 2'000'000)
        isa::step(p, golden, golden_mem);
    ASSERT_TRUE(golden.halted);

    // Timing run on the full machine (recorder attached for good
    // measure — it must not perturb architectural state).
    sim::MachineConfig cfg;
    cfg.numCores = 1;
    sim::RecorderConfig rc;
    machine::Machine m(cfg, p, {rc});
    auto rec = m.run(200'000'000ULL);

    EXPECT_EQ(rec.cores[0].retiredInstructions, golden.instructions);
    for (int r = 0; r < 32; ++r)
        EXPECT_EQ(m.core(0).archReg(r), golden.regs[r]) << "r" << r;
    EXPECT_EQ(m.memory().fingerprint(), golden_mem.fingerprint());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramGolden,
                         ::testing::Range(0, 12));

class RandomProgramBlocks : public ::testing::TestWithParam<int>
{
};

/** A context, its memory and the load values run() reported to it. */
struct Runner
{
    explicit Runner(const Program &p) : mem(p)
    {
        ctx.pc = p.entryFor(0);
        ctx.writeReg(isa::kRegThreadId, 0);
        ctx.writeReg(isa::kRegNumThreads, 1);
    }

    std::uint64_t
    run(const Program &p, std::uint64_t count)
    {
        return isa::run(p, ctx, mem, count,
                        [this](std::uint64_t v) { loads.push_back(v); });
    }

    isa::ExecContext ctx;
    mem::BackingStore mem;
    std::vector<std::uint64_t> loads;
};

TEST_P(RandomProgramBlocks, OneCallMatchesOneInstructionCalls)
{
    // Blocks of random length, the last running past the Halt: each is
    // one run(n) call on one side and n run(1) calls on the other.
    const Program p = check::randomProgram(1000 + GetParam(), false);
    sim::Rng rng(3000 + GetParam());
    Runner block(p), single(p);
    std::uint64_t blocks = 0;
    while (!single.ctx.halted) {
        ASSERT_LT(++blocks, 1'000'000u) << "the program did not halt";
        const std::uint64_t n = 1 + rng.below(300);
        const std::uint64_t ran = block.run(p, n);
        std::uint64_t ran_singly = 0;
        for (std::uint64_t i = 0; i < n; ++i)
            ran_singly += single.run(p, 1);
        ASSERT_EQ(ran, ran_singly);
        ASSERT_EQ(ran < n, single.ctx.halted) << "only a Halt stops early";
        ASSERT_EQ(block.ctx.pc, single.ctx.pc);
        ASSERT_EQ(block.ctx.halted, single.ctx.halted);
        ASSERT_EQ(block.ctx.instructions, single.ctx.instructions);
        for (std::uint32_t r = 0; r < isa::kNumRegs; ++r)
            ASSERT_EQ(block.ctx.regs[r], single.ctx.regs[r]) << "r" << r;
        ASSERT_EQ(block.loads, single.loads);
    }
    EXPECT_EQ(block.mem.fingerprint(), single.mem.fingerprint());
    EXPECT_EQ(block.run(p, 5), 0u); // a halted context runs nothing
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramBlocks,
                         ::testing::Range(0, 12));

} // namespace
