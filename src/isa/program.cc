#include "isa/program.hh"

#include "sim/logging.hh"

namespace rr::isa
{

std::uint64_t
evalAlu(const Instruction &inst, std::uint64_t a, std::uint64_t b)
{
    const std::uint64_t imm = static_cast<std::uint64_t>(inst.imm);
    switch (inst.op) {
#define RR_ISA_EVAL(opcode, result)                                       \
      case Opcode::opcode:                                                \
        return (result);
        RR_ISA_ALU_OPS(RR_ISA_EVAL)
#undef RR_ISA_EVAL
      default:
        sim::panic("evalAlu: not an ALU opcode: %s", mnemonic(inst.op));
    }
}

bool
evalBranch(const Instruction &inst, std::uint64_t a, std::uint64_t b)
{
    switch (inst.op) {
#define RR_ISA_EVAL(opcode, taken)                                        \
      case Opcode::opcode:                                                \
        return (taken);
        RR_ISA_BRANCH_OPS(RR_ISA_EVAL)
#undef RR_ISA_EVAL
      default:
        sim::panic("evalBranch: not a branch: %s", mnemonic(inst.op));
    }
}

std::uint64_t
evalAtomic(const Instruction &inst, std::uint64_t old, std::uint64_t b)
{
    switch (inst.op) {
#define RR_ISA_EVAL(opcode, stored)                                       \
      case Opcode::opcode:                                                \
        return (stored);
        RR_ISA_ATOMIC_OPS(RR_ISA_EVAL)
#undef RR_ISA_EVAL
      default:
        sim::panic("evalAtomic: not an atomic: %s", mnemonic(inst.op));
    }
}

} // namespace rr::isa
