/**
 * @file
 * A 4-issue out-of-order superscalar core executing the micro-ISA under
 * a Release-Consistency memory model (paper Table 1):
 *
 *  - fetch follows a bimodal predictor, so real wrong-path instructions
 *    enter the ROB and are squashed on branch resolution;
 *  - loads issue to memory (or forward from older stores) as soon as
 *    their address is known and no older store address is unresolved,
 *    freely bypassing pending stores — this produces the ~60% of
 *    accesses that perform out of program order (paper Figure 1);
 *  - stores retire into a write buffer and drain with multiple
 *    outstanding misses, completing out of order;
 *  - FENCE blocks younger loads and retires only once the write buffer
 *    has drained; atomics (XCHG/FADD) issue at the ROB head with an
 *    empty write buffer and act as full fences.
 *
 * The core publishes dispatch/retire/squash/forward events to
 * CoreListener instances (the MRR hub) and receives perform/completion
 * events from the MemorySystem.
 *
 * Issue is event-driven. executePhase() walks, oldest first, only the
 * ROB entries that can still act this cycle (the `active_` set); an
 * entry whose operand waits on a producer that has not executed parks
 * on that producer and rejoins the set when the producer executes
 * (wake()). Entries that gate younger loads stay in the set, so the
 * walk reaches, in the same order, every entry a scan of the whole ROB
 * would act on: issue order, port use and squashes are those of such
 * a scan.
 */

#ifndef RR_CPU_CORE_HH
#define RR_CPU_CORE_HH

#include <cstdint>
#include <vector>

#include "cpu/branch_predictor.hh"
#include "cpu/core_listener.hh"
#include "cpu/write_buffer.hh"
#include "isa/program.hh"
#include "mem/coherence.hh"
#include "mem/memory_system.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace rr::cpu
{

class Core : public mem::MemClient
{
  public:
    Core(sim::CoreId id, const sim::MachineConfig &cfg,
         const isa::Program &prog, mem::MemorySystem &mem,
         mem::StampClock &clock);

    /** Initialize thread state; must be called before the first tick. */
    void start(std::uint32_t tid, std::uint32_t num_threads);

    void addListener(CoreListener *l) { listeners_.push_back(l); }

    /** Advance one cycle. The memory system must have ticked already. */
    void tick(sim::Cycle now);

    /** Architecturally halted (HALT retired). */
    bool halted() const { return halted_; }

    /** Halted and the write buffer fully drained. */
    bool quiescent() const { return halted_ && wb_.empty(); }

    // MemClient
    void memCompleted(std::uint64_t tag, mem::AccessKind kind,
                      std::uint64_t load_value, sim::Cycle when) override;

    sim::CoreId id() const { return id_; }
    std::uint64_t retired() const { return retiredCount_; }
    std::uint64_t archReg(isa::Reg r) const { return archRegs_[r]; }
    std::uint32_t robOccupancy() const { return count_; }
    sim::StatSet &stats() { return stats_; }

  private:
    /**
     * A source operand. A value read at dispatch is ready at once; one
     * whose producer is still in flight is filled in, with the cycle it
     * becomes readable, when the producer executes (wake()).
     */
    struct Operand
    {
        std::uint64_t val = 0;
        /** kNoCycle while the producer has not executed. */
        sim::Cycle readyAt = 0;

        bool ready(sim::Cycle now) const { return readyAt <= now; }
        bool pending() const { return readyAt == sim::kNoCycle; }
    };

    struct RobEntry
    {
        sim::SeqNum seq = sim::kNoSeqNum;
        std::uint64_t pc = 0;
        isa::Instruction inst;
        Operand src1;
        Operand src2;
        // Execution status.
        bool executed = false;
        sim::Cycle resultReady = sim::kNoCycle;
        std::uint64_t result = 0;
        // Control flow.
        std::uint64_t predictedNext = 0;
        std::uint64_t actualNext = 0;
        bool predictedTaken = false;
        // Memory status.
        sim::Addr addr = 0;
        bool addrValid = false;
        bool memIssued = false;
        bool completed = false;
        bool forwarded = false;
        // Snapshot of the non-memory-instruction counter after this
        // instruction dispatched; restored on squash at this entry.
        std::uint32_t nmiAfter = 0;
    };

    /** A consumer operand parked on a producer's ROB slot. */
    struct Waiter
    {
        sim::SeqNum seq;     ///< the consumer; a squashed one is skipped
        std::uint32_t slot;  ///< the consumer's ROB slot
        std::uint32_t which; ///< 1 = src1, 2 = src2
    };

    static constexpr std::uint32_t kNoSlot = ~0u;

    // --- pipeline phases, called in order from tick() ---
    void retirePhase(sim::Cycle now);
    void executePhase(sim::Cycle now);
    void drainWriteBuffer(sim::Cycle now, std::uint32_t &mem_ports);
    void dispatchPhase(sim::Cycle now);

    /** Read register @p r into @p op, or park it on r's producer. */
    void readSource(Operand &op, isa::Reg r, std::uint32_t slot,
                    std::uint32_t which);

    /**
     * The entry in @p slot has executed: hand its result to every live
     * operand parked on it and put their entries back on the walk.
     */
    void wake(std::uint32_t slot);

    /**
     * Try to satisfy the load @p e at ROB offset @p offset from an older
     * in-flight store (the older stores and atomics of the ROB, then the
     * write buffer).
     * @return 0 no match (go to memory), 1 forwarded, 2 must wait.
     */
    int tryForward(RobEntry &e, std::uint32_t offset, sim::Cycle now);

    /** Squash every instruction younger than @p survivor_seq. */
    void squashAfter(sim::SeqNum survivor_seq, std::uint32_t nmi_restore);

    void rebuildProducers();

    // ROB circular-buffer helpers.
    std::uint32_t slotAt(std::uint32_t offset_from_head) const
    {
        return (head_ + offset_from_head) % robSize_;
    }
    RobEntry &entryAt(std::uint32_t offset) { return rob_[slotAt(offset)]; }
    /** Whether @p slot holds a live entry (squash leaves slots as is). */
    bool live(std::uint32_t slot) const
    {
        return (slot + robSize_ - head_) % robSize_ < count_;
    }
    /** Slot of the live entry with sequence number @p seq, or kNoSlot. */
    std::uint32_t findSlot(sim::SeqNum seq) const;

    // Sets of ROB slots, one bit per slot.
    static void
    setSlot(std::vector<std::uint64_t> &set, std::uint32_t slot)
    {
        set[slot / 64] |= std::uint64_t{1} << (slot % 64);
    }
    static void
    clearSlot(std::vector<std::uint64_t> &set, std::uint32_t slot)
    {
        set[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
    }
    // The walk set.
    void activate(std::uint32_t slot) { setSlot(active_, slot); }
    void deactivate(std::uint32_t slot) { clearSlot(active_, slot); }
    /** ROB offset of the first active entry at or after @p offset, or
     *  count_ when there is none. */
    std::uint32_t nextActive(std::uint32_t offset) const;
    /** ROB offset of the youngest store or atomic older than
     *  @p offset, or kNoSlot when there is none. */
    std::uint32_t prevStore(std::uint32_t offset) const;

    bool allowMemDispatch() const;

    const sim::CoreId id_;
    const sim::MachineConfig &cfg_;
    const isa::Program &prog_;
    mem::MemorySystem &mem_;
    mem::StampClock &clock_;

    // ROB storage.
    const std::uint32_t robSize_;
    std::vector<RobEntry> rob_;
    std::uint32_t head_ = 0; ///< index of oldest entry
    std::uint32_t count_ = 0;
    /** Entries executePhase() visits; see the file comment. */
    std::vector<std::uint64_t> active_;
    /** Stores and atomics in the ROB: what tryForward() walks. */
    std::vector<std::uint64_t> stores_;
    /** Per producer slot, the operands parked on it. */
    std::vector<std::vector<Waiter>> waiters_;

    // Register state.
    std::uint64_t archRegs_[isa::kNumRegs] = {};
    /** ROB slot of each register's youngest in-flight writer. */
    std::uint32_t regProducer_[isa::kNumRegs];

    // Fetch state.
    std::uint64_t fetchPc_ = 0;
    sim::SeqNum nextSeq_ = 0;
    sim::Cycle redirectAt_ = 0; ///< fetch resumes at this cycle
    sim::SeqNum jrStallSeq_ = sim::kNoSeqNum;
    sim::SeqNum haltSeq_ = sim::kNoSeqNum;
    std::uint32_t nmiCounter_ = 0;
    std::uint32_t lsqCount_ = 0;

    BranchPredictor predictor_;
    WriteBuffer wb_;

    bool started_ = false;
    bool halted_ = false;
    std::uint64_t retiredCount_ = 0;

    std::vector<CoreListener *> listeners_;
    sim::StatSet stats_;
    sim::ScalarHandle robOccupancy_{stats_, "rob_occupancy"};
    sim::ScalarHandle wbOccupancy_{stats_, "wb_occupancy"};
    sim::CounterHandle dispatched_{stats_, "dispatched"};
    sim::CounterHandle branches_{stats_, "branches"};
    sim::CounterHandle mispredicts_{stats_, "mispredicts"};
    sim::CounterHandle forwardedLoads_{stats_, "forwarded_loads"};
    sim::CounterHandle loadsToMemory_{stats_, "loads_to_memory"};
    sim::CounterHandle storesToMemory_{stats_, "stores_to_memory"};
    sim::CounterHandle wbFullStalls_{stats_, "wb_full_stalls"};
    sim::CounterHandle wbDrainBlocked_{stats_, "wb_drain_blocked"};
    sim::CounterHandle robFullStalls_{stats_, "rob_full_stalls"};
    sim::CounterHandle lsqFullStalls_{stats_, "lsq_full_stalls"};
    sim::CounterHandle traqFullStalls_{stats_, "traq_full_stalls"};
    sim::CounterHandle fetchOutOfRange_{stats_, "fetch_out_of_range"};
    sim::CounterHandle squashedInstructions_{stats_,
                                             "squashed_instructions"};
    sim::CounterHandle squashedCompletions_{stats_, "squashed_completions"};
};

} // namespace rr::cpu

#endif // RR_CPU_CORE_HH
