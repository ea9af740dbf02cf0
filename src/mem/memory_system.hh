/**
 * @file
 * The cache-hierarchy half of the memory system, shared by both
 * coherence backends, and the ring-based snoopy MESI backend.
 *
 * Model summary (see DESIGN.md and docs/COHERENCE.md):
 *  - Every access serializes exactly once: at its L1 hit, or at the
 *    grant of the transaction it rides, or at the post-fill replay. At
 *    serialization the access's value is applied to / sampled from the
 *    BackingStore and a PerformEvent is emitted. Stamp order is the
 *    machine's single memory linearization; this yields write atomicity
 *    by construction (paper Observation 1).
 *  - Requests are never granted on a line with an in-flight (granted,
 *    unfilled) transaction, mirroring MSHR/transient-state blocking in
 *    real protocols. The snoopy bus grants at most one transaction per
 *    cycle; the directory backend (directory.hh) grants one per home
 *    bank per cycle.
 *  - Snoopy: snoop events are broadcast to every core but the requester
 *    at grant time (ring snoopy: all caches observe all transactions),
 *    stamped just before the transaction's own perform events so that
 *    recorder interval ordering is dependence-consistent.
 *  - Caches hold tags + MESI only; values live in the BackingStore.
 */

#ifndef RR_MEM_MEMORY_SYSTEM_HH
#define RR_MEM_MEMORY_SYSTEM_HH

#include <cstdint>
#include <deque>
#include <list>
#include <queue>
#include <vector>

#include "mem/backing_store.hh"
#include "mem/cache_array.hh"
#include "mem/coherence.hh"
#include "sim/config.hh"
#include "sim/flat_map.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace rr::mem
{

/**
 * Everything both backends share: the per-core L1s, the inclusive
 * shared L2, MSHRs with same-line merging, the event queue that fires
 * completions and fills, and the fault-injection-aware snoop delivery.
 * A backend supplies the request-processing policy (processRequests)
 * and may refine the eviction/install paths.
 */
class CacheMemorySystem : public CoherenceProtocol
{
  public:
    CacheMemorySystem(const sim::MachineConfig &cfg, BackingStore &backing,
                      StampClock &clock);

    bool canAccept(sim::CoreId core, sim::Addr word_addr) const override;

    void access(sim::CoreId core, AccessKind kind, sim::Addr word_addr,
                std::uint64_t store_value, std::uint64_t tag) override;

    void tick(sim::Cycle now) override;

    MesiState l1State(sim::CoreId core, sim::Addr line_addr) const override;

    std::size_t inflightCount() const override { return inflight_.size(); }

    bool quiescent() const override;

  protected:
    struct Mshr
    {
        sim::Addr line;
        sim::CoreId core;
        BusKind kind;
        bool granted = false;
        MesiState fillState = MesiState::Invalid;
        std::vector<PendingAccess> waiting;
    };

    struct BusRequest
    {
        sim::CoreId core;
        sim::Addr line;
        BusKind kind;
        Mshr *mshr; ///< null for PutM
    };

    struct Event
    {
        sim::Cycle when;
        std::uint64_t order;
        enum Type { HitDone, Fill } type;
        // HitDone payload
        sim::CoreId core;
        std::uint64_t tag;
        AccessKind kind;
        std::uint64_t loadValue;
        // Fill payload
        Mshr *mshr;
    };

    struct EventLater
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            return a.when != b.when ? a.when > b.when : a.order > b.order;
        }
    };

    /**
     * Grant queued requests for this cycle (the per-protocol policy:
     * one bus grant for the snoopy ring, one grant per home bank for
     * the directory). Runs before due events fire.
     */
    virtual void processRequests() = 0;

    /** Issue path shared by external accesses and post-fill replays. */
    void accessInternal(sim::CoreId core, const PendingAccess &acc);

    void completeFill(Mshr *mshr);
    void scheduleHitDone(sim::CoreId core, const PendingAccess &acc,
                         std::uint64_t load_value, sim::Cycle when);
    void schedule(Event ev);

    Mshr *mshrFor(sim::CoreId core, sim::Addr line) const;
    std::size_t freeMshrs(sim::CoreId core) const;
    bool lineHasAnyMshr(sim::Addr line) const;

    /**
     * Whether @p req may be granted now: its line has no in-flight
     * transaction and (for fills) the L2 can produce a victim way.
     */
    bool grantBlocked(const BusRequest &req) const;

    /** Evict @p way from core @p core 's L1 (PutM + notifications). */
    virtual void evictL1Line(sim::CoreId core, CacheArray::Line &way);

    /** Install @p line into the L2, evicting/back-invalidating. */
    virtual bool installL2(sim::Addr line);

    /**
     * Deliver one snoop to core @p dest 's observers, consulting the
     * fault injector: an injected drop or delay perturbs only what the
     * *recorder-side* observers (coreObservers_) see — the broadcast
     * observers (tracers, ground-truth listeners) always see the event
     * at its true cycle, so the simulated execution is unperturbed and
     * only the recorded log degrades.
     */
    void deliverSnoopTo(sim::CoreId dest, const SnoopEvent &ev);

    std::uint64_t eventOrder_ = 0;

    std::vector<CacheArray> l1s_;
    CacheArray l2_;

    std::vector<std::list<Mshr>> mshrs_; // per core
    /**
     * Per-core line -> MSHR index, probed on every access (merge
     * check) and every canAccept(); open-addressing flat maps keep the
     * lookup a single short probe instead of an unordered_map's
     * node-pointer chase.
     */
    std::vector<sim::FlatMap<Mshr *>> mshrByLine_;
    sim::FlatMap<std::uint32_t> lineMshrCount_;

    std::deque<BusRequest> busQueue_;
    sim::FlatSet inflight_;
    std::priority_queue<Event, std::vector<Event>, EventLater> events_;

    sim::CounterHandle accessesRead_{stats_, "accesses_read"};
    sim::CounterHandle accessesWrite_{stats_, "accesses_write"};
    sim::CounterHandle l1Hits_{stats_, "l1_hits"};
    sim::CounterHandle l1Misses_{stats_, "l1_misses"};

  private:
    /**
     * A snoop whose delivery to one core's *recorder-side* observers
     * was postponed by fault injection; see deliverSnoopTo.
     */
    struct DelayedSnoop
    {
        sim::Cycle deliverAt;
        sim::CoreId dest;
        SnoopEvent ev;
    };

    /** Fire delayed snoops that are due at now_ (fault injection). */
    void deliverDelayedSnoops();

    /** FIFO by construction: the injected delay is one fixed constant. */
    std::deque<DelayedSnoop> delayedSnoops_;
};

/** The ring-based snoopy MESI backend (sim::CoherenceKind::Snoopy). */
class SnoopyMemorySystem final : public CacheMemorySystem
{
  public:
    using CacheMemorySystem::CacheMemorySystem;

  private:
    void processRequests() override;
    void grant(const BusRequest &req);
    void emitSnoop(sim::CoreId requester, sim::Addr line, bool is_write,
                   const std::vector<bool> &had_line);
};

} // namespace rr::mem

#endif // RR_MEM_MEMORY_SYSTEM_HH
