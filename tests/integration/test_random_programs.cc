/**
 * @file
 * Golden-model equivalence over randomly generated programs: a random
 * single-threaded program (ALU ops, loads/stores, loops with
 * data-dependent branches, atomics) must produce on the OoO core
 * exactly the architectural state the functional interpreter produces
 * — across seeds. This exercises renaming, forwarding, squash/replay
 * and retirement corner cases that hand-written tests miss. The racing
 * multithreaded programs record and replay through the table of
 * test_replay_check.cc.
 */

#include <gtest/gtest.h>

#include "machine/machine.hh"
#include "replay_check.hh"

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
    mem::BackingStore golden_mem;
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

} // namespace
