/**
 * @file
 * One interval-recording policy instance: the per-processor MRR state of
 * paper Figure 6a minus the TRAQ (which is shared across policies by the
 * MrrHub so that one execution can be recorded under several
 * configurations simultaneously — "record once, log many").
 *
 * Owns: read/write signatures, CISN, current InorderBlock size, Snoop
 * Table (RelaxReplay_Opt), and the growing CoreLog. Interval ordering
 * follows the QuickRec approach the paper evaluates: a global timestamp
 * (serialization stamp) taken at interval termination provides the total
 * order enforced at replay.
 */

#ifndef RR_RNR_INTERVAL_RECORDER_HH
#define RR_RNR_INTERVAL_RECORDER_HH

#include <cstdint>
#include <functional>

#include "mem/coherence.hh"
#include "rnr/log.hh"
#include "rnr/signature.hh"
#include "rnr/snoop_table.hh"
#include "sim/config.hh"
#include "sim/faultinject.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace rr::rnr
{

class IntervalRecorder
{
  public:
    /** Per-policy TRAQ-entry state captured at an access's perform. */
    struct PerformState
    {
        sim::Isn pisn = 0;
        SnoopTable::Counts counts; ///< Snoop Count field (Opt only)
    };

    /** Why an interval was closed (trace + stats reporting). */
    enum class Termination
    {
        Conflict,
        MaxSize,
        Finish,
        Injected, ///< fault injection forced the termination
    };

    IntervalRecorder(sim::CoreId core, const sim::RecorderConfig &cfg,
                     mem::StampClock &clock, std::string name);

    /**
     * A coherence transaction was observed (snoopy: all of them).
     * @return true iff it conflicted with the current interval's
     *         signatures (and thus terminated the interval).
     */
    bool onSnoop(const mem::SnoopEvent &ev);

    /**
     * Record that this core's *current* interval must replay after
     * interval @p src_isn of core @p src_core (dependency-recording
     * mode; no-op otherwise). Called by the hub when another core
     * responds to / conflicts with this core's transaction.
     */
    void notePredecessor(sim::CoreId src_core, sim::Isn src_isn);

    /** Latest closed interval index, or false via @p valid if none. */
    sim::Isn
    lastClosedIsn(bool &valid) const
    {
        valid = cisn_ > 0;
        return cisn_ > 0 ? cisn_ - 1 : 0;
    }

    /**
     * A dirty line was evicted without future snoop visibility:
     * RelaxReplay_Opt conservatively bumps the line's Snoop Table
     * counters (Section 4.3). The hub forwards the event only under
     * directory coherence (MrrHub::onDirtyEviction).
     */
    void onDirtyEviction(sim::Addr line_addr);

    /**
     * An access reached its serialization point: insert its line in the
     * signatures and snapshot PISN + Snoop Table counters.
     */
    PerformState notePerform(mem::AccessKind kind, sim::Addr word_addr);

    /** Count a group of non-memory instructions (in program order). */
    void countNmi(std::uint32_t n, sim::Cycle now);

    /**
     * Count a memory-access instruction (in program order).
     *
     * @p local_write_pending: a *younger* write to the same line has
     * already performed (it is still in the TRAQ behind this access).
     * The Snoop Table only observes remote transactions, so it cannot
     * order same-core same-line accesses: if this access moved across
     * an interval boundary and were logged in-order while the younger
     * write logs as reordered (its perform interval), replay would run
     * the write first — inverting same-address program order. When the
     * flag is set and the perform moved across intervals, the access
     * is conservatively logged as reordered (value/position from the
     * log), which is always safe.
     */
    void countMem(mem::AccessKind kind, sim::Addr word_addr,
                  std::uint64_t load_value, std::uint64_t store_value,
                  std::uint32_t nmi_before, const PerformState &ps,
                  sim::Cycle now, bool local_write_pending = false);

    /** Close the final interval at program end. */
    void finish(sim::Cycle now);

    /**
     * Observe every interval as it closes (before the next one opens).
     * The streaming log store (rnr::LogWriter) hooks in here so a
     * recording flows to disk with bounded memory instead of being
     * serialized in one end-of-run pass. The interval stays in the
     * in-memory CoreLog regardless.
     */
    void
    setIntervalSink(std::function<void(const IntervalRecord &)> sink)
    {
        sink_ = std::move(sink);
    }

    const CoreLog &log() const { return log_; }
    CoreLog takeLog() { return std::move(log_); }
    const sim::RecorderConfig &config() const { return cfg_; }
    sim::Isn cisn() const { return cisn_; }
    sim::StatSet &stats() { return stats_; }

  private:
    void insertSignature(mem::AccessKind kind, sim::Addr line);
    bool conflicts(sim::Addr line, bool is_write) const;
    void flushBlock();
    void terminate(Termination why, sim::Cycle now);

    /** Fall back to Base logging once the Snoop Table saturates. */
    void maybeDowngrade(sim::Cycle now);

    /** Line key as the (possibly fault-aliased) signatures see it. */
    sim::Addr
    faultLine(sim::Addr line) const
    {
        return faults_ ? faults_->aliasLine(line) : line;
    }

    const sim::CoreId core_;
    const sim::RecorderConfig cfg_;
    mem::StampClock &clock_;
    sim::FaultInjector *faults_ = nullptr; ///< null when not installed
    sim::RecorderMode mode_;               ///< effective logging mode

    Signature readSig_;
    Signature writeSig_;
    SnoopTable snoopTable_;

    sim::Isn cisn_ = 0;
    std::uint64_t blockSize_ = 0;        ///< Current InorderBlock Size
    std::uint64_t intervalInstructions_ = 0;
    sim::Cycle intervalStartCycle_ = 0;  ///< For interval trace events
    IntervalRecord current_;
    CoreLog log_;
    std::function<void(const IntervalRecord &)> sink_;
    bool finished_ = false;

    sim::StatSet stats_;
    sim::CounterHandle countedMem_{stats_, "counted_mem"};
};

} // namespace rr::rnr

#endif // RR_RNR_INTERVAL_RECORDER_HH
