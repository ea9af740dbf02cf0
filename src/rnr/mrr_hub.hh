/**
 * @file
 * The per-core Memory Race Recorder hub. Owns the TRAQ (Tracking Queue,
 * paper Figure 3/6) and drives one or more IntervalRecorder policy
 * instances from the same execution — recording hardware for
 * RelaxReplay_Base and RelaxReplay_Opt differs only in counting-time
 * logic, so a single TRAQ can feed several configurations at once
 * ("record once, log many"; each policy keeps its own PISN/Snoop Count
 * fields in the shared entries).
 *
 * Event flow:
 *  - core signals (CoreListener): dispatch inserts entries, retirement
 *    advances the watermark, squashes flush the TRAQ tail, HALT closes
 *    the final interval once the write buffer drains;
 *  - memory-system signals (MemoryObserver): perform events fill in
 *    values and per-policy state; snoop events feed signatures and
 *    Snoop Tables.
 *
 * An entry is counted (removed from the TRAQ head, program order) when
 * it is both performed and retired — the paper's post-completion
 * in-order counting step.
 */

#ifndef RR_RNR_MRR_HUB_HH
#define RR_RNR_MRR_HUB_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "cpu/core_listener.hh"
#include "mem/coherence.hh"
#include "rnr/interval_recorder.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace rr::rnr
{

class MrrHub : public cpu::CoreListener, public mem::MemoryObserver
{
  public:
    /**
     * @param policies One RecorderConfig per simultaneous recording;
     *        traqEntries of the first policy sizes the shared TRAQ.
     * @param coherence The machine's protocol; it decides whether
     *        dirty evictions reach the recorders (onDirtyEviction).
     */
    MrrHub(sim::CoreId core, const std::vector<sim::RecorderConfig> &policies,
           mem::StampClock &clock, sim::CoherenceKind coherence);

    std::size_t numPolicies() const { return recorders_.size(); }
    IntervalRecorder &recorder(std::size_t i) { return *recorders_.at(i); }

    /**
     * Wire the hubs of all cores together so that dependency-recording
     * policies can send ordering edges to requesters (the hardware
     * piggybacks these on coherence responses). @p peers is indexed by
     * core id and must outlive this hub.
     */
    void setPeers(const std::vector<MrrHub *> &peers) { peers_ = peers; }

    // --- cpu::CoreListener ---
    void onDispatchMem(sim::SeqNum seq, const isa::Instruction &inst,
                       std::uint32_t nmi_before) override;
    void onDispatchNmiGroup(sim::SeqNum last_seq,
                            std::uint32_t count) override;
    void onForwardedLoadPerform(sim::SeqNum seq, sim::Addr word_addr,
                                std::uint64_t value, std::uint64_t stamp,
                                sim::Cycle cycle) override;
    void onRetire(const cpu::RetireInfo &info) override;
    void onSquash(sim::SeqNum youngest_surviving) override;
    void onHalted(sim::Cycle now, std::uint32_t residual_nmi) override;
    bool canDispatchMem() const override;

    // --- mem::MemoryObserver ---
    void onPerform(const mem::PerformEvent &ev) override;
    void onSnoop(sim::CoreId observer, const mem::SnoopEvent &ev) override;
    void onDirtyEviction(sim::CoreId core, sim::Addr line_addr,
                         std::uint64_t stamp) override;

    /** Sample TRAQ occupancy (Figure 12); call once per cycle. */
    void sampleOccupancy();

    std::size_t occupancy() const { return traq_.size(); }
    const sim::Histogram &occupancyHistogram() const { return histogram_; }
    sim::StatSet &stats() { return stats_; }

  private:
    enum class Kind : std::uint8_t
    {
        Load,
        Store,
        Atomic,
        NmiGroup,
    };

    struct TraqEntry
    {
        sim::SeqNum seq;
        Kind kind;
        std::uint32_t nmi; ///< NMI field (mem) or group size (NmiGroup)
        sim::Addr word = 0;
        std::uint64_t loadValue = 0;
        std::uint64_t storeValue = 0;
        bool performed = false;
        bool retired = false;
        bool oooAtPerform = false;
        std::vector<IntervalRecorder::PerformState> ps;
    };

    TraqEntry *findBySeq(sim::SeqNum seq);
    void recordPerform(TraqEntry &e, mem::AccessKind kind, sim::Addr word,
                       std::uint64_t load_value, std::uint64_t store_value,
                       sim::Cycle cycle);
    void drainCountable(sim::Cycle now);
    static mem::AccessKind accessKindOf(const TraqEntry &e);

    const sim::CoreId core_;
    mem::StampClock &clock_;
    const sim::CoherenceKind coherence_;
    std::vector<std::unique_ptr<IntervalRecorder>> recorders_;
    std::vector<MrrHub *> peers_;
    std::size_t traqCapacity_;

    std::deque<TraqEntry> traq_;
    /** Exclusive retirement watermark: seqs < retiredUpTo_ retired. */
    sim::SeqNum retiredUpTo_ = 0;
    bool haltPending_ = false;
    std::uint32_t residualNmi_ = 0;
    sim::Cycle haltCycle_ = 0;
    bool finished_ = false;

    sim::StatSet stats_;
    /** Registered in stats_ ("traq_occupancy"); exported with them. */
    sim::Histogram &histogram_;
    sim::ScalarHandle occupancy_{stats_, "traq_occupancy"};
    sim::CounterHandle retiredMem_{stats_, "retired_mem"};
    sim::CounterHandle countedMem_{stats_, "counted_mem"};
    sim::CounterHandle countedNmiGroups_{stats_, "counted_nmi_groups"};
    sim::CounterHandle oooLoads_{stats_, "ooo_loads"};
    sim::CounterHandle oooStores_{stats_, "ooo_stores"};
    sim::CounterHandle snoopsObserved_{stats_, "snoops_observed"};
};

} // namespace rr::rnr

#endif // RR_RNR_MRR_HUB_HH
