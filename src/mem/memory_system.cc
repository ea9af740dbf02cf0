#include "mem/memory_system.hh"

#include <algorithm>

#include "sim/faultinject.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace rr::mem
{

// --- CacheMemorySystem: protocol-independent hierarchy machinery ----

CacheMemorySystem::CacheMemorySystem(const sim::MachineConfig &cfg,
                                     BackingStore &backing,
                                     StampClock &clock)
    : CoherenceProtocol(cfg, backing, clock),
      l2_(sim::CacheConfig{cfg.totalL2Bytes(), cfg.l2.associativity,
                           cfg.l2.mshrEntries, cfg.l2.hitLatency})
{
    l1s_.reserve(cfg.numCores);
    for (std::uint32_t c = 0; c < cfg.numCores; ++c)
        l1s_.emplace_back(cfg.l1);
    mshrs_.resize(cfg.numCores);
    mshrByLine_.resize(cfg.numCores);
}

CacheMemorySystem::Mshr *
CacheMemorySystem::mshrFor(sim::CoreId core, sim::Addr line) const
{
    Mshr *const *slot = mshrByLine_[core].find(line);
    return slot ? *slot : nullptr;
}

std::size_t
CacheMemorySystem::freeMshrs(sim::CoreId core) const
{
    return cfg_.l1.mshrEntries - mshrs_.at(core).size();
}

bool
CacheMemorySystem::lineHasAnyMshr(sim::Addr line) const
{
    const std::uint32_t *count = lineMshrCount_.find(line);
    return count != nullptr && *count > 0;
}

bool
CacheMemorySystem::canAccept(sim::CoreId core, sim::Addr word_addr) const
{
    const sim::Addr line = sim::lineAddr(word_addr);
    return mshrFor(core, line) != nullptr || freeMshrs(core) > 0;
}

void
CacheMemorySystem::scheduleHitDone(sim::CoreId core,
                                   const PendingAccess &acc,
                                   std::uint64_t load_value,
                                   sim::Cycle when)
{
    Event ev{};
    ev.when = when;
    ev.type = Event::HitDone;
    ev.core = core;
    ev.tag = acc.tag;
    ev.kind = acc.kind;
    ev.loadValue = load_value;
    ev.mshr = nullptr;
    schedule(ev);
}

void
CacheMemorySystem::schedule(Event ev)
{
    ev.order = ++eventOrder_;
    events_.push(ev);
}

void
CacheMemorySystem::access(sim::CoreId core, AccessKind kind,
                          sim::Addr word_addr, std::uint64_t store_value,
                          std::uint64_t tag)
{
    RR_ASSERT(canAccept(core, word_addr), "access without canAccept");
    (*(isWriteKind(kind) ? accessesWrite_ : accessesRead_))++;
    accessInternal(core, {kind, sim::wordAddr(word_addr), store_value, tag});
}

void
CacheMemorySystem::accessInternal(sim::CoreId core, const PendingAccess &acc)
{
    const sim::Addr line = sim::lineAddr(acc.word);

    // Merge into a pending transaction on the same line, if any.
    if (Mshr *mshr = mshrFor(core, line)) {
        mshr->waiting.push_back(acc);
        stats_.counter("mshr_merges")++;
        return;
    }

    CacheArray &l1 = l1s_[core];
    CacheArray::Line *ln = l1.find(line);
    const bool writer = isWriteKind(acc.kind);
    const bool hit =
        ln && (!writer || ln->state == MesiState::Modified ||
               ln->state == MesiState::Exclusive);

    if (hit) {
        if (writer && ln->state == MesiState::Exclusive)
            ln->state = MesiState::Modified; // silent E->M upgrade
        l1.touch(*ln);
        const std::uint64_t v = serialize(core, acc);
        scheduleHitDone(core, acc, v, now_ + cfg_.l1.hitLatency);
        (*l1Hits_)++;
        return;
    }

    (*l1Misses_)++;
    RR_ASSERT(freeMshrs(core) > 0, "no free MSHR on miss path");
    auto &list = mshrs_[core];
    list.push_back(Mshr{line, core, writer ? BusKind::GetM : BusKind::GetS,
                        false, MesiState::Invalid, {acc}});
    Mshr *mshr = &list.back();
    mshrByLine_[core][line] = mshr;
    ++lineMshrCount_[line];
    busQueue_.push_back(BusRequest{core, line, mshr->kind, mshr});
}

void
CacheMemorySystem::tick(sim::Cycle now)
{
    now_ = now;
    deliverDelayedSnoops();
    processRequests();

    while (!events_.empty() && events_.top().when <= now_) {
        Event ev = events_.top();
        events_.pop();
        if (ev.type == Event::HitDone) {
            if (clients_[ev.core])
                clients_[ev.core]->memCompleted(ev.tag, ev.kind,
                                                ev.loadValue, now_);
        } else {
            completeFill(ev.mshr);
        }
    }
}

bool
CacheMemorySystem::grantBlocked(const BusRequest &req) const
{
    if (inflight_.count(req.line))
        return true;
    // A victimless fill is impossible only when every way of the target
    // L2 set is pinned by pending transactions; block then.
    if (req.kind != BusKind::PutM && !l2_.find(req.line)) {
        const auto blocked = [this](sim::Addr victim) {
            return inflight_.count(victim) > 0 || lineHasAnyMshr(victim);
        };
        if (!const_cast<CacheArray &>(l2_).victimFor(req.line, blocked))
            return true;
    }
    return false;
}

bool
CacheMemorySystem::installL2(sim::Addr line)
{
    if (CacheArray::Line *hit = l2_.find(line)) {
        l2_.touch(*hit);
        stats_.counter("l2_hits")++;
        return true;
    }
    stats_.counter("l2_misses")++;
    const auto blocked = [this](sim::Addr victim) {
        return inflight_.count(victim) > 0 || lineHasAnyMshr(victim);
    };
    CacheArray::Line *way = l2_.victimFor(line, blocked);
    RR_ASSERT(way, "L2 victim availability checked at grant");
    if (way->valid()) {
        // Inclusive L2: back-invalidate every L1 copy of the victim.
        const sim::Addr victim = way->tag;
        stats_.counter("l2_evictions")++;
        for (sim::CoreId c = 0; c < cfg_.numCores; ++c) {
            CacheArray::Line *l1_line = l1s_[c].find(victim);
            if (!l1_line)
                continue;
            stats_.counter("back_invalidations")++;
            if (l1_line->state == MesiState::Modified) {
                const std::uint64_t stamp = clock_.next();
                notifyObservers(c, [&](MemoryObserver *obs) {
                    obs->onDirtyEviction(c, victim, stamp);
                });
                busQueue_.push_back(
                    BusRequest{c, victim, BusKind::PutM, nullptr});
            }
            l1_line->state = MesiState::Invalid;
        }
    }
    l2_.install(*way, line, MesiState::Shared);
    return false;
}

void
CacheMemorySystem::deliverSnoopTo(sim::CoreId dest, const SnoopEvent &ev)
{
    if (sim::FaultInjector::enabled() && !coreObservers_[dest].empty()) {
        auto *inj = sim::FaultInjector::get();
        // Drop or delay the *recorder-side* delivery only; the
        // broadcast observers (tracers, ground-truth listeners) always
        // see the snoop, so execution is unperturbed and the recorded
        // log is what degrades.
        if (inj->dropSnoop(dest)) {
            stats_.counter("fault_snoops_dropped")++;
            if (sim::TraceSink::enabled())
                sim::TraceSink::get()->instant(
                    sim::TraceSink::kRecordPid, dest, "fault",
                    "snoop-dropped", now_,
                    {{"line", ev.lineAddr}, {"requester", ev.requester}});
            for (auto *obs : observers_)
                obs->onSnoop(dest, ev);
            return;
        }
        if (inj->delaySnoop(dest)) {
            stats_.counter("fault_snoops_delayed")++;
            if (sim::TraceSink::enabled())
                sim::TraceSink::get()->instant(
                    sim::TraceSink::kRecordPid, dest, "fault",
                    "snoop-delayed", now_,
                    {{"line", ev.lineAddr},
                     {"cycles", inj->plan().delaySnoopCycles}});
            delayedSnoops_.push_back(DelayedSnoop{
                now_ + inj->plan().delaySnoopCycles, dest, ev});
            for (auto *obs : observers_)
                obs->onSnoop(dest, ev);
            return;
        }
    }
    notifyObservers(dest, [&ev, dest](MemoryObserver *obs) {
        obs->onSnoop(dest, ev);
    });
}

void
CacheMemorySystem::deliverDelayedSnoops()
{
    while (!delayedSnoops_.empty() &&
           delayedSnoops_.front().deliverAt <= now_) {
        const DelayedSnoop d = delayedSnoops_.front();
        delayedSnoops_.pop_front();
        for (auto *obs : coreObservers_[d.dest])
            obs->onSnoop(d.dest, d.ev);
    }
}

void
CacheMemorySystem::evictL1Line(sim::CoreId core, CacheArray::Line &way)
{
    stats_.counter("l1_evictions")++;
    if (way.state == MesiState::Modified) {
        const std::uint64_t stamp = clock_.next();
        notifyObservers(core, [&](MemoryObserver *obs) {
            obs->onDirtyEviction(core, way.tag, stamp);
        });
        busQueue_.push_back(BusRequest{core, way.tag, BusKind::PutM,
                                       nullptr});
    }
    way.state = MesiState::Invalid;
}

void
CacheMemorySystem::completeFill(Mshr *mshr)
{
    const sim::CoreId core = mshr->core;
    const sim::Addr line = mshr->line;
    CacheArray &l1 = l1s_[core];

    CacheArray::Line *way = l1.find(line);
    if (!way) {
        // Not an upgrade: pick a victim way. Skip ways pinned by this
        // core's pending upgrades.
        const auto blocked = [this, core](sim::Addr victim) {
            return mshrFor(core, victim) != nullptr;
        };
        way = l1.victimFor(line, blocked);
        if (!way) {
            // Whole set pinned; retry next cycle (extremely rare).
            Event retry{};
            retry.when = now_ + 1;
            retry.type = Event::Fill;
            retry.mshr = mshr;
            retry.core = core;
            schedule(retry);
            return;
        }
        if (way->valid())
            evictL1Line(core, *way);
        l1.install(*way, line, mshr->fillState);
    } else {
        // Upgrade completion (or refill over a stale S copy).
        way->state = mshr->fillState;
        l1.touch(*way);
    }

    inflight_.erase(line);

    // Retire the MSHR, then replay accesses the transaction could not
    // satisfy (writers merged into a GetS, or late arrivals).
    std::vector<PendingAccess> leftovers = std::move(mshr->waiting);
    mshrByLine_[core].erase(line);
    auto &list = mshrs_[core];
    for (auto it = list.begin(); it != list.end(); ++it) {
        if (&*it == mshr) {
            list.erase(it);
            break;
        }
    }
    std::uint32_t *cnt = lineMshrCount_.find(line);
    RR_ASSERT(cnt != nullptr && *cnt > 0, "MSHR line count out of sync");
    if (--*cnt == 0)
        lineMshrCount_.erase(line);

    for (const PendingAccess &acc : leftovers)
        accessInternal(core, acc);
}

MesiState
CacheMemorySystem::l1State(sim::CoreId core, sim::Addr line_addr) const
{
    return l1s_.at(core).stateOf(sim::lineAddr(line_addr));
}

bool
CacheMemorySystem::quiescent() const
{
    if (!busQueue_.empty() || !events_.empty() || !inflight_.empty() ||
        !delayedSnoops_.empty())
        return false;
    for (const auto &list : mshrs_) {
        if (!list.empty())
            return false;
    }
    return true;
}

// --- SnoopyMemorySystem: the ring-based snoopy MESI backend ---------

void
SnoopyMemorySystem::processRequests()
{
    // The ring bus grants at most one transaction per cycle.
    for (auto it = busQueue_.begin(); it != busQueue_.end(); ++it) {
        if (grantBlocked(*it))
            continue;
        BusRequest req = *it;
        busQueue_.erase(it);
        grant(req);
        return;
    }
}

void
SnoopyMemorySystem::grant(const BusRequest &req)
{
    if (req.kind == BusKind::PutM) {
        stats_.counter("bus_putm")++;
        if (sim::TraceSink::enabled()) {
            sim::TraceSink::get()->instant(
                sim::TraceSink::kRecordPid, req.core, "coherence", "PutM",
                now_, {{"line", req.line}});
        }
        return; // bandwidth-only: the BackingStore already has the value
    }

    Mshr *mshr = req.mshr;
    const sim::Addr line = req.line;
    const bool is_write = req.kind == BusKind::GetM;
    stats_.counter(is_write ? "bus_getm" : "bus_gets")++;
    if (sim::TraceSink::enabled()) {
        sim::TraceSink::get()->instant(
            sim::TraceSink::kRecordPid, req.core, "coherence",
            is_write ? "GetM" : "GetS", now_, {{"line", line}});
    }

    // Snoop all other caches; find a supplier and apply transitions.
    bool other_has_line = false;
    bool supplied_by_cache = false;
    std::vector<bool> had_line(cfg_.numCores, false);
    for (sim::CoreId c = 0; c < cfg_.numCores; ++c) {
        if (c == req.core)
            continue;
        CacheArray::Line *ln = l1s_[c].find(line);
        if (!ln)
            continue;
        had_line[c] = true;
        other_has_line = true;
        if (ln->state == MesiState::Modified ||
            ln->state == MesiState::Exclusive)
            supplied_by_cache = true;
        if (is_write) {
            ln->state = MesiState::Invalid;
        } else if (ln->state != MesiState::Shared) {
            ln->state = MesiState::Shared; // M/E owner downgrades
        }
    }
    if (supplied_by_cache)
        stats_.counter("c2c_transfers")++;

    // Upgrade: the requester already holds the line in S; a GetM then
    // needs no data transfer.
    CacheArray::Line *own = l1s_[req.core].find(line);
    const bool upgrade = is_write && own != nullptr;

    const std::uint32_t ring =
        cfg_.numCores * cfg_.uncore.ringHopDelay;
    std::uint32_t latency = ring;
    if (upgrade) {
        stats_.counter("bus_upgrades")++;
        // Invalidation-only transaction; ring traversal covers it.
    } else if (supplied_by_cache) {
        latency += cfg_.l1.hitLatency;
        installL2(line); // keep inclusion; supplier writes through to L2
    } else {
        const bool l2_hit = installL2(line);
        latency += cfg_.uncore.l2Latency;
        if (!l2_hit)
            latency += cfg_.uncore.memLatency;
    }

    mshr->granted = true;
    mshr->fillState = is_write
                          ? MesiState::Modified
                          : (other_has_line ? MesiState::Shared
                                            : MesiState::Exclusive);
    inflight_.insert(line);

    // Broadcast the snoop before serializing this transaction's own
    // accesses so dependence-source intervals terminate with smaller
    // stamps than the dependent performs.
    emitSnoop(req.core, line, is_write, had_line);

    // Serialize the waiting accesses the granted transaction satisfies;
    // a GetS cannot satisfy writers (they replay after the fill).
    std::vector<PendingAccess> leftover;
    const sim::Cycle done_at = now_ + latency;
    for (const PendingAccess &acc : mshr->waiting) {
        if (is_write || !isWriteKind(acc.kind)) {
            const std::uint64_t v = serialize(req.core, acc);
            scheduleHitDone(req.core, acc, v, done_at);
        } else {
            leftover.push_back(acc);
        }
    }
    mshr->waiting = std::move(leftover);

    Event fill{};
    fill.when = done_at;
    fill.type = Event::Fill;
    fill.mshr = mshr;
    fill.core = req.core;
    schedule(fill);
}

void
SnoopyMemorySystem::emitSnoop(sim::CoreId requester, sim::Addr line,
                              bool is_write,
                              const std::vector<bool> &had_line)
{
    SnoopEvent ev{requester, line,  is_write,
                  false,     clock_.next(), now_};
    for (sim::CoreId c = 0; c < cfg_.numCores; ++c) {
        if (c == requester)
            continue;
        ev.observerHadLine = had_line.empty() ? false : had_line[c];
        deliverSnoopTo(c, ev);
    }
}

} // namespace rr::mem
