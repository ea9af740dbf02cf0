#include "rnr/mrr_hub.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace rr::rnr
{

MrrHub::MrrHub(sim::CoreId core,
               const std::vector<sim::RecorderConfig> &policies,
               mem::StampClock &clock, sim::CoherenceKind coherence)
    : core_(core), clock_(clock), coherence_(coherence),
      traqCapacity_(policies.empty() ? 176 : policies.front().traqEntries),
      stats_(sim::strfmt("mrr%u", core)),
      histogram_(stats_.histogram("traq_occupancy", 10, 20))
{
    RR_ASSERT(!policies.empty(), "MrrHub needs at least one policy");
    for (std::size_t i = 0; i < policies.size(); ++i) {
        recorders_.push_back(std::make_unique<IntervalRecorder>(
            core, policies[i], clock,
            sim::strfmt("mrr%u.%s%llu", core,
                        sim::toString(policies[i].mode),
                        static_cast<unsigned long long>(
                            policies[i].maxIntervalInstructions))));
    }
}

mem::AccessKind
MrrHub::accessKindOf(const TraqEntry &e)
{
    switch (e.kind) {
      case Kind::Load:
        return mem::AccessKind::Load;
      case Kind::Store:
        return mem::AccessKind::Store;
      default:
        return mem::AccessKind::Xchg; // RMW; exact flavor is irrelevant
    }
}

MrrHub::TraqEntry *
MrrHub::findBySeq(sim::SeqNum seq)
{
    // Perform events target recently dispatched entries; search from the
    // tail. The TRAQ is small (~176), so linear search is fine.
    for (auto it = traq_.rbegin(); it != traq_.rend(); ++it) {
        if (it->seq == seq)
            return &*it;
        if (it->seq < seq)
            return nullptr;
    }
    return nullptr;
}

bool
MrrHub::canDispatchMem() const
{
    return traq_.size() < traqCapacity_;
}

void
MrrHub::onDispatchMem(sim::SeqNum seq, const isa::Instruction &inst,
                      std::uint32_t nmi_before)
{
    RR_ASSERT(!finished_, "dispatch after finish");
    TraqEntry e;
    e.seq = seq;
    e.kind = inst.isLoad() ? Kind::Load
                           : (inst.isStore() ? Kind::Store : Kind::Atomic);
    e.nmi = nmi_before;
    e.ps.resize(recorders_.size());
    traq_.push_back(std::move(e));
    if (traq_.size() > traqCapacity_)
        stats_.counter("traq_overflow_groups")++;
}

void
MrrHub::onDispatchNmiGroup(sim::SeqNum last_seq, std::uint32_t count)
{
    RR_ASSERT(!finished_, "dispatch after finish");
    TraqEntry e;
    e.seq = last_seq;
    e.kind = Kind::NmiGroup;
    e.nmi = count;
    traq_.push_back(std::move(e));
}

void
MrrHub::recordPerform(TraqEntry &e, mem::AccessKind kind, sim::Addr word,
                      std::uint64_t load_value, std::uint64_t store_value,
                      sim::Cycle cycle)
{
    RR_ASSERT(!e.performed, "double perform for seq %llu",
              static_cast<unsigned long long>(e.seq));
    e.performed = true;
    e.word = word;
    e.loadValue = load_value;
    e.storeValue = store_value;

    // Figure 1 metric: performed while an older access is still pending.
    for (const auto &older : traq_) {
        if (older.seq >= e.seq)
            break;
        if (older.kind != Kind::NmiGroup && !older.performed) {
            e.oooAtPerform = true;
            break;
        }
    }

    if (sim::TraceSink::enabled()) {
        sim::TraceSink::get()->instant(
            sim::TraceSink::kRecordPid, core_, "traq", "perform", cycle,
            {{"seq", e.seq},
             {"addr", word},
             {"ooo", e.oooAtPerform}});
    }

    for (std::size_t i = 0; i < recorders_.size(); ++i)
        e.ps[i] = recorders_[i]->notePerform(kind, word);
}

void
MrrHub::onPerform(const mem::PerformEvent &ev)
{
    if (ev.core != core_)
        return;
    TraqEntry *e = findBySeq(ev.tag);
    if (!e) {
        // Squashed wrong-path access whose request was already in
        // flight; nothing to record.
        stats_.counter("squashed_performs")++;
        return;
    }
    recordPerform(*e, ev.kind, ev.addr, ev.loadValue, ev.storeValue,
                  ev.cycle);
    drainCountable(ev.cycle);
}

void
MrrHub::onForwardedLoadPerform(sim::SeqNum seq, sim::Addr word_addr,
                               std::uint64_t value, std::uint64_t stamp,
                               sim::Cycle cycle)
{
    (void)stamp;
    TraqEntry *e = findBySeq(seq);
    RR_ASSERT(e, "forwarded perform for unknown seq");
    stats_.counter("forwarded_performs")++;
    recordPerform(*e, mem::AccessKind::Load, word_addr, value, 0, cycle);
    drainCountable(cycle);
}

void
MrrHub::onRetire(const cpu::RetireInfo &info)
{
    retiredUpTo_ = info.seq + 1;
    if (info.isMem) {
        TraqEntry *e = findBySeq(info.seq);
        RR_ASSERT(e, "retire for unknown TRAQ entry");
        e->retired = true;
        (*retiredMem_)++;
    }
    drainCountable(info.cycle);
}

void
MrrHub::onSquash(sim::SeqNum youngest_surviving)
{
    while (!traq_.empty() && traq_.back().seq > youngest_surviving) {
        traq_.pop_back();
        stats_.counter("squashed_entries")++;
    }
}

void
MrrHub::onHalted(sim::Cycle now, std::uint32_t residual_nmi)
{
    haltPending_ = true;
    residualNmi_ = residual_nmi;
    haltCycle_ = now;
    drainCountable(now);
}

void
MrrHub::onSnoop(sim::CoreId observer, const mem::SnoopEvent &ev)
{
    if (observer != core_)
        return;
    (*snoopsObserved_)++;
    for (std::size_t i = 0; i < recorders_.size(); ++i) {
        IntervalRecorder &rec = *recorders_[i];
        const bool conflicted = rec.onSnoop(ev);
        // Dependency recording (Section 3.6 / Cyrus-style ordering):
        // when this core either conflicted with or simply held the
        // requested line, the requester's current interval must be
        // ordered after this core's latest closed interval. (If this
        // core never closed an interval, its only touches of the line
        // were wrong-path fills, which carry no dependence.)
        if (rec.config().recordDependencies &&
            (conflicted || ev.observerHadLine) && !peers_.empty()) {
            bool valid = false;
            const sim::Isn src = rec.lastClosedIsn(valid);
            if (valid) {
                peers_.at(ev.requester)
                    ->recorder(i)
                    .notePredecessor(core_, src);
            }
        }
    }
}

void
MrrHub::onDirtyEviction(sim::CoreId core, sim::Addr line_addr,
                        std::uint64_t stamp)
{
    (void)stamp;
    // Section 4.3: under a directory the core stops seeing the line's
    // transactions, so its recorders must bump conservatively. The
    // snoopy ring keeps every core snooping every transaction; there
    // the eviction costs no visibility and is ignored.
    if (core != core_ || coherence_ != sim::CoherenceKind::Directory)
        return;
    for (auto &r : recorders_)
        r->onDirtyEviction(line_addr);
}

void
MrrHub::drainCountable(sim::Cycle now)
{
    if (finished_)
        return;
    while (!traq_.empty()) {
        TraqEntry &e = traq_.front();
        if (e.kind == Kind::NmiGroup) {
            if (retiredUpTo_ <= e.seq)
                break;
            for (auto &r : recorders_)
                r->countNmi(e.nmi, now);
            (*countedNmiGroups_)++;
        } else {
            if (!e.performed || !e.retired)
                break;
            if (e.oooAtPerform)
                (*(e.kind == Kind::Store ? oooStores_ : oooLoads_))++;
            (*countedMem_)++;
            if (sim::TraceSink::enabled()) {
                sim::TraceSink::get()->instant(
                    sim::TraceSink::kRecordPid, core_, "traq", "count",
                    now,
                    {{"seq", e.seq},
                     {"addr", e.word},
                     {"ooo", e.oooAtPerform}});
            }
            const mem::AccessKind kind = accessKindOf(e);
            // Same-core same-line ordering guard: a younger write that
            // has already performed (still queued behind this entry)
            // may log as reordered into this access's perform interval;
            // the recorder must then not move this access forward to
            // its counting point. The TRAQ is the only structure that
            // can see this — the Snoop Table ignores local traffic.
            const sim::Addr line = sim::lineAddr(e.word);
            bool local_write_pending = false;
            for (const TraqEntry &y : traq_) {
                if (y.seq <= e.seq || !y.performed ||
                    y.kind == Kind::NmiGroup || y.kind == Kind::Load)
                    continue;
                if (sim::lineAddr(y.word) == line) {
                    local_write_pending = true;
                    break;
                }
            }
            for (std::size_t i = 0; i < recorders_.size(); ++i) {
                recorders_[i]->countMem(kind, e.word, e.loadValue,
                                        e.storeValue, e.nmi, e.ps[i], now,
                                        local_write_pending);
            }
        }
        traq_.pop_front();
    }

    if (haltPending_ && traq_.empty()) {
        for (auto &r : recorders_) {
            r->countNmi(residualNmi_, haltCycle_);
            r->finish(haltCycle_);
        }
        haltPending_ = false;
        finished_ = true;
    }
}

void
MrrHub::sampleOccupancy()
{
    occupancy_->sample(static_cast<double>(traq_.size()));
    histogram_.sample(traq_.size());
}

} // namespace rr::rnr
