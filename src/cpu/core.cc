#include "cpu/core.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace rr::cpu
{

using isa::Instruction;
using isa::Opcode;

Core::Core(sim::CoreId id, const sim::MachineConfig &cfg,
           const isa::Program &prog, mem::MemorySystem &mem,
           mem::StampClock &clock)
    : id_(id), cfg_(cfg), prog_(prog), mem_(mem), clock_(clock),
      robSize_(cfg.core.robEntries), rob_(robSize_),
      active_((robSize_ + 63) / 64), stores_(active_.size()),
      waiters_(robSize_),
      predictor_(cfg.core.predictorEntries),
      wb_(cfg.core.writeBufferEntries),
      stats_(sim::strfmt("core%u", id))
{
    for (auto &p : regProducer_)
        p = kNoSlot;
    mem_.setClient(id_, this);
}

void
Core::start(std::uint32_t tid, std::uint32_t num_threads)
{
    RR_ASSERT(!started_, "core started twice");
    archRegs_[isa::kRegThreadId] = tid;
    archRegs_[isa::kRegNumThreads] = num_threads;
    fetchPc_ = prog_.entryFor(tid);
    started_ = true;
}

bool
Core::allowMemDispatch() const
{
    for (const auto *l : listeners_) {
        if (!l->canDispatchMem())
            return false;
    }
    return true;
}

void
Core::tick(sim::Cycle now)
{
    RR_ASSERT(started_, "tick before start");
    if (halted_) {
        std::uint32_t ports = cfg_.core.numLdStUnits;
        drainWriteBuffer(now, ports);
        return;
    }

    retirePhase(now);
    if (halted_) {
        std::uint32_t ports = cfg_.core.numLdStUnits;
        drainWriteBuffer(now, ports);
        return;
    }
    executePhase(now);
    dispatchPhase(now);

    robOccupancy_->sample(count_);
    wbOccupancy_->sample(static_cast<double>(wb_.size()));
}

// ---------------------------------------------------------------------
// Operands, wake-up and the walk set
// ---------------------------------------------------------------------

void
Core::readSource(Operand &op, isa::Reg r, std::uint32_t slot,
                 std::uint32_t which)
{
    const std::uint32_t p = r == 0 ? kNoSlot : regProducer_[r];
    if (p == kNoSlot) {
        op.val = r == 0 ? 0 : archRegs_[r];
        return;
    }
    const RobEntry &prod = rob_[p];
    if (prod.executed) {
        op.val = prod.result;
        op.readyAt = prod.resultReady;
        return;
    }
    op.readyAt = sim::kNoCycle;
    waiters_[p].push_back(Waiter{rob_[slot].seq, slot, which});
}

void
Core::wake(std::uint32_t slot)
{
    std::vector<Waiter> &parked = waiters_[slot];
    const RobEntry &p = rob_[slot];
    for (const Waiter &w : parked) {
        RobEntry &c = rob_[w.slot];
        // Squash leaves a slot's contents behind: a squashed consumer
        // still shows its sequence number until the slot is reused.
        if (c.seq != w.seq || !live(w.slot))
            continue;
        Operand &op = w.which == 1 ? c.src1 : c.src2;
        op.val = p.result;
        op.readyAt = p.resultReady;
        activate(w.slot);
    }
    parked.clear();
}

std::uint32_t
Core::nextActive(std::uint32_t offset) const
{
    while (offset < count_) {
        const std::uint32_t slot = slotAt(offset);
        const std::uint64_t bits = active_[slot / 64] >> (slot % 64);
        if (bits != 0)
            return std::min<std::uint32_t>(
                offset + static_cast<std::uint32_t>(std::countr_zero(bits)),
                count_);
        // Skip to the next word, or wrap to slot 0 at the ring's end.
        const std::uint32_t word_end =
            std::min(slot - slot % 64 + 64, robSize_);
        offset += word_end - slot;
    }
    return count_;
}

std::uint32_t
Core::prevStore(std::uint32_t offset) const
{
    while (offset > 0) {
        const std::uint32_t slot = slotAt(offset - 1);
        // Shift `slot` to bit 63, so bit 63 - k is the slot k entries
        // older, and keep the bits of this word no older than the head.
        const std::uint32_t span = std::min(slot % 64 + 1, offset);
        std::uint64_t bits = stores_[slot / 64] << (63 - slot % 64);
        if (span < 64)
            bits &= ~std::uint64_t{0} << (64 - span);
        if (bits != 0)
            return offset - 1 -
                   static_cast<std::uint32_t>(std::countl_zero(bits));
        // Go on at the end of the previous word, or of the ring.
        offset -= span;
    }
    return kNoSlot;
}

std::uint32_t
Core::findSlot(sim::SeqNum seq) const
{
    // Sequence numbers rise from the head of the ring to its tail.
    std::uint32_t lo = 0;
    std::uint32_t hi = count_;
    while (lo < hi) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        if (rob_[slotAt(mid)].seq < seq)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo < count_ && rob_[slotAt(lo)].seq == seq)
        return slotAt(lo);
    return kNoSlot;
}

// ---------------------------------------------------------------------
// Retirement
// ---------------------------------------------------------------------

void
Core::retirePhase(sim::Cycle now)
{
    std::uint32_t retired = 0;
    while (retired < cfg_.core.retireWidth && count_ > 0) {
        RobEntry &e = rob_[head_];
        const Instruction &inst = e.inst;

        if (inst.isLoad() || inst.isAtomic()) {
            if (!e.completed)
                break;
        } else if (inst.isStore()) {
            if (!e.executed)
                break;
            if (wb_.full()) {
                (*wbFullStalls_)++;
                break;
            }
        } else if (inst.isFence()) {
            if (!e.executed || !wb_.empty())
                break;
        } else {
            if (!e.executed || e.resultReady > now)
                break;
        }

        // Commit.
        if (inst.isStore())
            wb_.push(e.addr, e.src2.val, e.seq);
        if (inst.writesRd()) {
            archRegs_[inst.rd] = e.result;
            if (regProducer_[inst.rd] == head_)
                regProducer_[inst.rd] = kNoSlot;
        }
        ++retiredCount_;
        ++retired;
        if (inst.isMem())
            --lsqCount_;

        const RetireInfo info{e.seq,
                              e.pc,
                              inst.op,
                              inst.isMem(),
                              (inst.isLoad() || inst.isAtomic()) ? e.result
                                                                 : 0,
                              now};
        for (auto *l : listeners_)
            l->onRetire(info);

        const sim::SeqNum seq = e.seq;
        const bool is_halt = inst.isHalt();
        const std::uint32_t halt_nmi = e.nmiAfter;
        deactivate(head_);
        clearSlot(stores_, head_);
        head_ = (head_ + 1) % robSize_;
        --count_;

        if (is_halt) {
            halted_ = true;
            if (sim::TraceSink::enabled()) {
                sim::TraceSink::get()->instant(
                    sim::TraceSink::kRecordPid, id_, "core", "halt", now,
                    {{"retired", retiredCount_}});
            }
            squashAfter(seq, 0);
            for (auto *l : listeners_)
                l->onHalted(now, halt_nmi);
            break;
        }
    }
}

// ---------------------------------------------------------------------
// Execute / issue
// ---------------------------------------------------------------------

int
Core::tryForward(RobEntry &e, std::uint32_t offset, sim::Cycle now)
{
    // Older ROB stores and atomics, youngest first. All older store
    // addresses are known here (unknown ones set blockLoads upstream).
    for (std::uint32_t off = prevStore(offset); off != kNoSlot;
         off = prevStore(off)) {
        RobEntry &s = entryAt(off);
        const Instruction &si = s.inst;
        if (!s.addrValid)
            return 2;
        if (s.addr != e.addr)
            continue;
        std::uint64_t value;
        if (si.isStore()) {
            if (!s.executed)
                return 2; // data not ready yet
            value = s.src2.val;
        } else if (s.completed) {
            // The value the atomic wrote back over the one it read.
            value = isa::evalAtomic(si, s.result, s.src2.val);
        } else {
            return 2;
        }
        e.result = value;
        e.forwarded = e.completed = e.executed = true;
        e.resultReady = now + 1;
        (*forwardedLoads_)++;
        const std::uint64_t stamp = clock_.next();
        for (auto *l : listeners_)
            l->onForwardedLoadPerform(e.seq, e.addr, value, stamp, now);
        return 1;
    }

    if (const WriteBuffer::Entry *w = wb_.youngestFor(e.addr)) {
        e.result = w->value;
        e.forwarded = e.completed = e.executed = true;
        e.resultReady = now + 1;
        (*forwardedLoads_)++;
        const std::uint64_t stamp = clock_.next();
        for (auto *l : listeners_)
            l->onForwardedLoadPerform(e.seq, e.addr, w->value, stamp, now);
        return 1;
    }
    return 0;
}

void
Core::executePhase(sim::Cycle now)
{
    std::uint32_t issued = 0;
    std::uint32_t mem_ports = cfg_.core.numLdStUnits;
    bool block_loads = false;

    // Oldest first over the walk set. An entry leaves the set once it
    // has nothing left to do here, or parks while an operand waits on
    // a producer that has not executed; wake() puts it back. Entries a
    // wake-up adds ahead of the cursor are reached in this same walk.
    for (std::uint32_t i = nextActive(0);
         i < count_ && issued < cfg_.core.issueWidth;
         i = nextActive(i + 1)) {
        const std::uint32_t slot = slotAt(i);
        RobEntry &e = rob_[slot];
        const Instruction &inst = e.inst;

        if (inst.isStore()) {
            if (!e.addrValid && e.src1.ready(now)) {
                e.addr = sim::wordAddr(e.src1.val + inst.imm);
                e.addrValid = true;
            }
            if (e.addrValid && !e.executed && e.src2.ready(now)) {
                e.executed = true;
                e.resultReady = now + 1;
            }
            // A store with an unknown address stays: it blocks loads.
            if (!e.addrValid)
                block_loads = true;
            else if (e.executed || e.src2.pending())
                deactivate(slot);
            continue;
        }

        if (inst.isLoad()) {
            // Issued and completed loads have left the set.
            if (!e.addrValid) {
                if (!e.src1.ready(now)) {
                    if (e.src1.pending())
                        deactivate(slot);
                    continue;
                }
                e.addr = sim::wordAddr(e.src1.val + inst.imm);
                e.addrValid = true;
            }
            if (block_loads || mem_ports == 0)
                continue;
            const int fwd = tryForward(e, i, now);
            if (fwd == 1) {
                --mem_ports;
                ++issued;
                deactivate(slot);
                wake(slot);
            } else if (fwd == 0 && mem_.canAccept(id_, e.addr)) {
                mem_.access(id_, mem::AccessKind::Load, e.addr, 0, e.seq);
                e.memIssued = true;
                --mem_ports;
                ++issued;
                (*loadsToMemory_)++;
                deactivate(slot);
            }
            continue;
        }

        if (inst.isAtomic()) {
            // An atomic acts as a fence until it completes.
            if (e.completed) {
                deactivate(slot);
                continue;
            }
            if (!e.addrValid && e.src1.ready(now)) {
                e.addr = sim::wordAddr(e.src1.val + inst.imm);
                e.addrValid = true;
            }
            block_loads = true;
            if (i == 0 && e.addrValid && e.src2.ready(now) && !e.memIssued &&
                wb_.empty() && mem_ports > 0 &&
                mem_.canAccept(id_, e.addr)) {
                const auto kind = inst.op == Opcode::Xchg
                                      ? mem::AccessKind::Xchg
                                      : mem::AccessKind::Fadd;
                mem_.access(id_, kind, e.addr, e.src2.val, e.seq);
                e.memIssued = true;
                --mem_ports;
                ++issued;
            }
            continue;
        }

        if (inst.isFence()) {
            // Stays in the set until it retires: it orders younger loads.
            if (!e.executed) {
                e.executed = true;
                e.resultReady = now;
            }
            block_loads = true;
            continue;
        }

        if (!e.src1.ready(now) || !e.src2.ready(now)) {
            if (e.src1.pending() || e.src2.pending())
                deactivate(slot);
            continue;
        }

        ++issued;
        e.executed = true;
        deactivate(slot);
        switch (inst.op) {
          case Opcode::Nop:
          case Opcode::Halt:
            e.resultReady = now;
            break;
          case Opcode::Beq:
          case Opcode::Bne:
          case Opcode::Blt:
          case Opcode::Bge: {
            const bool taken =
                isa::evalBranch(inst, e.src1.val, e.src2.val);
            e.actualNext = taken ? static_cast<std::uint64_t>(inst.imm)
                                 : e.pc + 1;
            e.resultReady = now + 1;
            predictor_.update(e.pc, taken);
            (*branches_)++;
            if (e.actualNext != e.predictedNext) {
                (*mispredicts_)++;
                squashAfter(e.seq, e.nmiAfter);
                fetchPc_ = e.actualNext;
                redirectAt_ = now + cfg_.core.branchRedirectPenalty;
                drainWriteBuffer(now, mem_ports);
                return; // younger entries are gone
            }
            break;
          }
          case Opcode::Jmp:
            e.actualNext = static_cast<std::uint64_t>(inst.imm);
            e.resultReady = now;
            break;
          case Opcode::Jal:
            e.result = e.pc + 1;
            e.actualNext = static_cast<std::uint64_t>(inst.imm);
            e.resultReady = now + 1;
            break;
          case Opcode::Jr:
            e.actualNext = e.src1.val;
            e.resultReady = now + 1;
            RR_ASSERT(jrStallSeq_ == e.seq, "unexpected Jr stall state");
            jrStallSeq_ = sim::kNoSeqNum;
            fetchPc_ = e.actualNext;
            redirectAt_ = now + 1;
            break;
          default:
            e.result = isa::evalAlu(inst, e.src1.val, e.src2.val);
            e.resultReady =
                now + (inst.op == Opcode::Mul ? cfg_.core.mulLatency : 1);
            break;
        }
        wake(slot);
    }

    drainWriteBuffer(now, mem_ports);
}

void
Core::drainWriteBuffer(sim::Cycle now, std::uint32_t &mem_ports)
{
    (void)now;
    while (mem_ports > 0) {
        WriteBuffer::Entry *e = wb_.nextToIssue();
        if (!e)
            return;
        if (!mem_.canAccept(id_, e->word)) {
            (*wbDrainBlocked_)++;
            return;
        }
        mem_.access(id_, mem::AccessKind::Store, e->word, e->value,
                    e->seq);
        e->issued = true;
        --mem_ports;
        (*storesToMemory_)++;
    }
}

// ---------------------------------------------------------------------
// Dispatch / fetch
// ---------------------------------------------------------------------

void
Core::dispatchPhase(sim::Cycle now)
{
    for (std::uint32_t d = 0; d < cfg_.core.dispatchWidth; ++d) {
        if (jrStallSeq_ != sim::kNoSeqNum || haltSeq_ != sim::kNoSeqNum)
            break;
        if (now < redirectAt_)
            break;
        if (fetchPc_ >= prog_.size()) {
            // Wrong-path fetch ran off the program; wait for the squash.
            (*fetchOutOfRange_)++;
            break;
        }
        if (count_ >= robSize_) {
            (*robFullStalls_)++;
            break;
        }
        const Instruction &inst = prog_.code[fetchPc_];
        if (inst.isMem()) {
            if (lsqCount_ >= cfg_.core.lsqEntries) {
                (*lsqFullStalls_)++;
                break;
            }
            if (!allowMemDispatch()) {
                (*traqFullStalls_)++;
                break;
            }
        }

        const sim::SeqNum seq = nextSeq_++;
        const std::uint32_t tail = slotAt(count_);
        RobEntry &e = rob_[tail];
        e = RobEntry{};
        e.seq = seq;
        e.pc = fetchPc_;
        e.inst = inst;
        waiters_[tail].clear();
        if (inst.readsRs1())
            readSource(e.src1, inst.rs1, tail, 1);
        if (inst.readsRs2())
            readSource(e.src2, inst.rs2, tail, 2);

        std::uint64_t next = fetchPc_ + 1;
        if (inst.isCondBranch()) {
            e.predictedTaken = predictor_.predict(e.pc);
            next = e.predictedTaken ? static_cast<std::uint64_t>(inst.imm)
                                    : e.pc + 1;
        } else if (inst.op == Opcode::Jmp || inst.op == Opcode::Jal) {
            next = static_cast<std::uint64_t>(inst.imm);
        } else if (inst.op == Opcode::Jr) {
            jrStallSeq_ = seq;
            next = e.pc; // placeholder; fetch stalls until resolve
        } else if (inst.isHalt()) {
            haltSeq_ = seq;
            next = e.pc;
        }
        e.predictedNext = next;
        e.actualNext = next;

        if (inst.writesRd())
            regProducer_[inst.rd] = tail;

        if (inst.isMem()) {
            for (auto *l : listeners_)
                l->onDispatchMem(seq, inst, nmiCounter_);
            nmiCounter_ = 0;
            ++lsqCount_;
        } else {
            ++nmiCounter_;
            if (nmiCounter_ >= cfg_.core.nmiGroupLimit) {
                for (auto *l : listeners_)
                    l->onDispatchNmiGroup(seq, nmiCounter_);
                nmiCounter_ = 0;
            }
        }
        e.nmiAfter = nmiCounter_;

        activate(tail);
        if (inst.isStore() || inst.isAtomic())
            setSlot(stores_, tail);
        ++count_;
        (*dispatched_)++;

        if (inst.op == Opcode::Jr || inst.isHalt())
            break;
        fetchPc_ = next;
    }
}

// ---------------------------------------------------------------------
// Squash
// ---------------------------------------------------------------------

void
Core::squashAfter(sim::SeqNum survivor_seq, std::uint32_t nmi_restore)
{
    while (count_ > 0) {
        RobEntry &e = entryAt(count_ - 1);
        if (e.seq <= survivor_seq)
            break;
        if (e.inst.isMem())
            --lsqCount_;
        deactivate(slotAt(count_ - 1));
        clearSlot(stores_, slotAt(count_ - 1));
        --count_;
        (*squashedInstructions_)++;
    }
    nmiCounter_ = nmi_restore;
    if (jrStallSeq_ != sim::kNoSeqNum && jrStallSeq_ > survivor_seq)
        jrStallSeq_ = sim::kNoSeqNum;
    if (haltSeq_ != sim::kNoSeqNum && haltSeq_ > survivor_seq)
        haltSeq_ = sim::kNoSeqNum;
    rebuildProducers();
    for (auto *l : listeners_)
        l->onSquash(survivor_seq);
}

void
Core::rebuildProducers()
{
    for (auto &p : regProducer_)
        p = kNoSlot;
    for (std::uint32_t i = 0; i < count_; ++i) {
        const std::uint32_t slot = slotAt(i);
        if (rob_[slot].inst.writesRd())
            regProducer_[rob_[slot].inst.rd] = slot;
    }
}

// ---------------------------------------------------------------------
// Memory completions
// ---------------------------------------------------------------------

void
Core::memCompleted(std::uint64_t tag, mem::AccessKind kind,
                   std::uint64_t load_value, sim::Cycle when)
{
    if (kind == mem::AccessKind::Store) {
        wb_.complete(tag);
        return;
    }
    const std::uint32_t slot = findSlot(tag);
    if (slot == kNoSlot) {
        (*squashedCompletions_)++;
        return;
    }
    RobEntry &e = rob_[slot];
    RR_ASSERT(e.memIssued && !e.completed, "unexpected completion");
    e.completed = true;
    e.executed = true;
    e.result = load_value;
    e.resultReady = when;
    wake(slot);
}

} // namespace rr::cpu
