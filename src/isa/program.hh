/**
 * @file
 * A Program is the unit of work a core executes: an instruction vector
 * shared by all threads plus per-thread entry points and an initial data
 * image. Workloads are Programs produced by the Assembler DSL.
 */

#ifndef RR_ISA_PROGRAM_HH
#define RR_ISA_PROGRAM_HH

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "isa/instruction.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace rr::isa
{

/** Initial register conventions for thread startup. */
inline constexpr Reg kRegThreadId = 1;  ///< r1 = thread id
inline constexpr Reg kRegNumThreads = 2; ///< r2 = number of threads

/** A complete executable image. */
struct Program
{
    /**
     * Footprint of a hand-assembled program: covers every address the
     * tests, examples and microbenches use.
     */
    static constexpr std::uint64_t kDefaultMemoryBytes = 1 << 20;

    /** Shared code; threads are distinguished by entry PC and r1. */
    std::vector<Instruction> code;
    /** Entry PC per thread; threads beyond the vector reuse entry 0. */
    std::vector<std::uint64_t> entries;
    /** Initial memory image: 8-byte-aligned word address -> value. */
    std::map<sim::Addr, std::uint64_t> initialData;
    /**
     * The footprint: every address the program reads or writes lies
     * below it. workloads::KernelBuilder derives it from its layout.
     */
    std::uint64_t memoryBytes = kDefaultMemoryBytes;
    /** Label table kept for diagnostics. */
    std::map<std::string, std::uint64_t> labels;

    std::uint64_t
    entryFor(std::uint32_t tid) const
    {
        if (entries.empty())
            return 0;
        return entries[tid < entries.size() ? tid : 0];
    }

    const Instruction &
    at(std::uint64_t pc) const
    {
        return code.at(pc);
    }

    std::uint64_t size() const { return code.size(); }
};

/**
 * Architectural per-thread execution context used by the functional
 * interpreter and the replayer.
 */
struct ExecContext
{
    std::uint64_t pc = 0;
    std::uint64_t regs[kNumRegs] = {};
    bool halted = false;
    /** Retired (architecturally executed) instruction count. */
    std::uint64_t instructions = 0;

    void
    writeReg(Reg r, std::uint64_t v)
    {
        if (r != 0)
            regs[r] = v;
    }
};

/** Memory interface for functional execution. */
class MemoryIf
{
  public:
    virtual ~MemoryIf() = default;
    virtual std::uint64_t read64(sim::Addr a) = 0;
    virtual void write64(sim::Addr a, std::uint64_t v) = 0;
};

/**
 * The semantics of every opcode that computes a register value from
 * registers and the immediate, written once: X(opcode, result) with the
 * result over a = rs1, b = rs2 and imm (the immediate as unsigned).
 * run() and evalAlu() both expand it.
 */
#define RR_ISA_ALU_OPS(X)                                                 \
    X(Li, imm)                                                            \
    X(Add, a + b)                                                         \
    X(Sub, a - b)                                                         \
    X(Mul, a * b)                                                         \
    X(And, a & b)                                                         \
    X(Or, a | b)                                                          \
    X(Xor, a ^ b)                                                         \
    X(Sll, a << (b & 63))                                                 \
    X(Srl, a >> (b & 63))                                                 \
    X(Slt, static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b))   \
    X(Sltu, a < b)                                                        \
    X(Addi, a + imm)                                                      \
    X(Andi, a & imm)                                                      \
    X(Ori, a | imm)                                                       \
    X(Xori, a ^ imm)                                                      \
    X(Slli, a << (imm & 63))                                              \
    X(Srli, a >> (imm & 63))

/** Conditional branches: X(opcode, taken) over a = rs1, b = rs2. */
#define RR_ISA_BRANCH_OPS(X)                                              \
    X(Beq, a == b)                                                        \
    X(Bne, a != b)                                                        \
    X(Blt, static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b))   \
    X(Bge, static_cast<std::int64_t>(a) >= static_cast<std::int64_t>(b))

/**
 * Atomics: X(opcode, stored) with the value written back over old (the
 * word read, which is also the value rd receives) and b = rs2.
 */
#define RR_ISA_ATOMIC_OPS(X)                                              \
    X(Xchg, b)                                                            \
    X(Fadd, old + b)

/**
 * Functionally execute up to @p count instructions of @p ctx, stopping
 * after a Halt (which counts). A halted context executes nothing.
 * Atomics are a read followed by a write on @p mem, atomic by
 * construction since one context runs at a time. Every value a load or
 * an atomic reads is passed to @p on_load, in program order.
 *
 * pc, registers (r0 held at zero) and the instruction count stay in
 * locals for the whole call and every opcode is one case of one flat
 * switch, so a block of n instructions costs one call, n dispatches
 * and the memory calls its loads and stores make.
 *
 * @return how many instructions ran: @p count, or fewer when the
 *         context halted.
 */
template <typename OnLoad>
std::uint64_t
run(const Program &prog, ExecContext &ctx, MemoryIf &mem,
    std::uint64_t count, OnLoad &&on_load)
{
    if (ctx.halted)
        return 0;
    std::uint64_t r[kNumRegs];
    std::copy(std::begin(ctx.regs), std::end(ctx.regs), r);
    r[0] = 0;
    const Instruction *const code = prog.code.data();
    const std::uint64_t size = prog.code.size();
    std::uint64_t pc = ctx.pc;
    std::uint64_t n = 0;
    bool halted = false;
    while (n < count && !halted) {
        RR_ASSERT(pc < size, "pc %llu out of range",
                  static_cast<unsigned long long>(pc));
        const Instruction &inst = code[pc];
        const std::uint64_t a = r[inst.rs1];
        const std::uint64_t b = r[inst.rs2];
        const std::uint64_t imm = static_cast<std::uint64_t>(inst.imm);
        ++n;
        switch (inst.op) {
#define RR_ISA_RUN_ALU(opcode, result)                                    \
          case Opcode::opcode:                                            \
            r[inst.rd] = (result);                                        \
            ++pc;                                                         \
            break;
            RR_ISA_ALU_OPS(RR_ISA_RUN_ALU)
#undef RR_ISA_RUN_ALU
#define RR_ISA_RUN_BRANCH(opcode, taken)                                  \
          case Opcode::opcode:                                            \
            pc = (taken) ? imm : pc + 1;                                  \
            break;
            RR_ISA_BRANCH_OPS(RR_ISA_RUN_BRANCH)
#undef RR_ISA_RUN_BRANCH
#define RR_ISA_RUN_ATOMIC(opcode, stored)                                 \
          case Opcode::opcode: {                                          \
            const sim::Addr addr = sim::wordAddr(a + imm);                \
            const std::uint64_t old = mem.read64(addr);                   \
            mem.write64(addr, (stored));                                  \
            r[inst.rd] = old;                                             \
            on_load(old);                                                 \
            ++pc;                                                         \
            break;                                                        \
          }
            RR_ISA_ATOMIC_OPS(RR_ISA_RUN_ATOMIC)
#undef RR_ISA_RUN_ATOMIC
          case Opcode::Ld: {
            const std::uint64_t v = mem.read64(sim::wordAddr(a + imm));
            r[inst.rd] = v;
            on_load(v);
            ++pc;
            break;
          }
          case Opcode::St:
            mem.write64(sim::wordAddr(a + imm), b);
            ++pc;
            break;
          case Opcode::Nop:
          case Opcode::Fence:
            ++pc;
            break;
          case Opcode::Jmp:
            pc = imm;
            break;
          case Opcode::Jal:
            r[inst.rd] = pc + 1;
            pc = imm;
            break;
          case Opcode::Jr:
            pc = a;
            break;
          case Opcode::Halt:
            halted = true;
            break;
        }
        r[0] = 0;
    }
    std::copy(r, r + kNumRegs, ctx.regs);
    ctx.pc = pc;
    ctx.halted = halted;
    ctx.instructions += n;
    return n;
}

/** Execute the one instruction at ctx.pc: run() for one instruction. */
inline void
step(const Program &prog, ExecContext &ctx, MemoryIf &mem)
{
    RR_ASSERT(!ctx.halted, "stepping a halted context");
    run(prog, ctx, mem, 1, [](std::uint64_t) {});
}

/**
 * The result of an RR_ISA_ALU_OPS instruction, for the OoO core, which
 * reads its operands when they are ready rather than from a context.
 */
std::uint64_t evalAlu(const Instruction &inst, std::uint64_t rs1,
                      std::uint64_t rs2);

/** Whether an RR_ISA_BRANCH_OPS branch is taken. */
bool evalBranch(const Instruction &inst, std::uint64_t rs1,
                std::uint64_t rs2);

/**
 * The value an RR_ISA_ATOMIC_OPS instruction writes back over @p old
 * (the word it read) with @p rs2.
 */
std::uint64_t evalAtomic(const Instruction &inst, std::uint64_t old,
                         std::uint64_t rs2);

} // namespace rr::isa

#endif // RR_ISA_PROGRAM_HH
