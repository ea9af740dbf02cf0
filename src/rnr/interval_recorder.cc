#include "rnr/interval_recorder.hh"

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace rr::rnr
{

namespace
{

const char *
toString(IntervalRecorder::Termination why)
{
    switch (why) {
      case IntervalRecorder::Termination::Conflict:
        return "snoop-conflict";
      case IntervalRecorder::Termination::MaxSize:
        return "size-cap";
      case IntervalRecorder::Termination::Finish:
        return "finish";
      case IntervalRecorder::Termination::Injected:
        return "fault-injected";
    }
    return "?";
}

} // namespace

IntervalRecorder::IntervalRecorder(sim::CoreId core,
                                   const sim::RecorderConfig &cfg,
                                   mem::StampClock &clock,
                                   std::string name)
    : core_(core), cfg_(cfg), clock_(clock), mode_(cfg.mode),
      readSig_(cfg.signatureBanks, cfg.signatureBitsPerBank,
               0x5ead51f0beefULL),
      writeSig_(cfg.signatureBanks, cfg.signatureBitsPerBank,
                0x3517e51f0aceULL),
      snoopTable_(cfg.snoopTableEntries), stats_(std::move(name))
{
    // Bind the injector at construction: an injector installed mid-run
    // is deliberately ignored so a run's fault plan is fixed up front.
    if (sim::FaultInjector::enabled()) {
        faults_ = sim::FaultInjector::get();
        if (faults_->plan().stSaturateAt)
            snoopTable_.setSaturationCap(faults_->plan().stSaturateAt);
    }
}

void
IntervalRecorder::insertSignature(mem::AccessKind kind, sim::Addr line)
{
    if (kind == mem::AccessKind::Load) {
        readSig_.insert(line);
    } else if (kind == mem::AccessKind::Store) {
        writeSig_.insert(line);
    } else {
        readSig_.insert(line);
        writeSig_.insert(line);
    }
}

bool
IntervalRecorder::conflicts(sim::Addr line, bool is_write) const
{
    if (is_write) {
        return readSig_.mightContain(line) ||
               writeSig_.mightContain(line);
    }
    return writeSig_.mightContain(line);
}

bool
IntervalRecorder::onSnoop(const mem::SnoopEvent &ev)
{
    if (finished_)
        return false;
    // Signature inserts and queries use the same (possibly aliased)
    // line key, so injected aliasing stays conservative: extra
    // conflicts, never missed ones.
    const sim::Addr line = faultLine(ev.lineAddr);
    bool conflicted = false;
    if (conflicts(line, ev.isWrite)) {
        stats_.counter("terminations_conflict")++;
        terminate(Termination::Conflict, ev.cycle);
        conflicted = true;
    }
    if (sim::TraceSink::enabled()) {
        sim::TraceSink::get()->instant(
            sim::TraceSink::kRecordPid, core_, "snoop",
            conflicted ? "snoop-conflict" : "snoop", ev.cycle,
            {{"line", ev.lineAddr},
             {"requester", ev.requester},
             {"write", ev.isWrite},
             {"policy", stats_.name().c_str()}});
    }
    if (mode_ == sim::RecorderMode::Opt) {
        snoopTable_.bump(line);
        maybeDowngrade(ev.cycle);
    }
    return conflicted;
}

void
IntervalRecorder::notePredecessor(sim::CoreId src_core, sim::Isn src_isn)
{
    if (!cfg_.recordDependencies || finished_)
        return;
    // One edge per source core suffices: the source's intervals are
    // chain-ordered, so the newest edge subsumes older ones.
    for (IntervalDep &d : current_.predecessors) {
        if (d.core != src_core)
            continue;
        if (src_isn > d.isn)
            d.isn = src_isn;
        return;
    }
    current_.predecessors.push_back(IntervalDep{src_core, src_isn});
    stats_.counter("dependency_edges")++;
}

void
IntervalRecorder::onDirtyEviction(sim::Addr line_addr)
{
    if (finished_)
        return;
    if (mode_ == sim::RecorderMode::Opt) {
        snoopTable_.bump(faultLine(line_addr));
        stats_.counter("dirty_eviction_bumps")++;
        maybeDowngrade(0);
    }
}

IntervalRecorder::PerformState
IntervalRecorder::notePerform(mem::AccessKind kind, sim::Addr word_addr)
{
    const sim::Addr line = faultLine(sim::lineAddr(word_addr));
    insertSignature(kind, line);
    PerformState ps;
    ps.pisn = cisn_;
    if (mode_ == sim::RecorderMode::Opt)
        ps.counts = snoopTable_.read(line);
    return ps;
}

void
IntervalRecorder::countNmi(std::uint32_t n, sim::Cycle now)
{
    RR_ASSERT(!finished_, "counting after finish");
    if (n == 0)
        return;
    blockSize_ += n;
    intervalInstructions_ += n;
    if (cfg_.maxIntervalInstructions != 0 &&
        intervalInstructions_ >= cfg_.maxIntervalInstructions) {
        stats_.counter("terminations_maxsize")++;
        terminate(Termination::MaxSize, now);
    } else if (faults_ && faults_->forceTerminate(core_)) {
        stats_.counter("terminations_injected")++;
        terminate(Termination::Injected, now);
    }
}

void
IntervalRecorder::countMem(mem::AccessKind kind, sim::Addr word_addr,
                           std::uint64_t load_value,
                           std::uint64_t store_value,
                           std::uint32_t nmi_before,
                           const PerformState &ps, sim::Cycle now,
                           bool local_write_pending)
{
    RR_ASSERT(!finished_, "counting after finish");
    const sim::Addr line = faultLine(sim::lineAddr(word_addr));

    bool reordered;
    if (ps.pisn == cisn_) {
        // Perform and counting fall in the same interval: the perform
        // event trivially moves to the counting point (Observation 2).
        reordered = false;
    } else if (mode_ == sim::RecorderMode::Base) {
        reordered = true;
    } else {
        // The Snoop Table's hit/miss decision: a "hit" (both counters
        // moved) means a conflicting transaction may have been observed
        // between perform and counting, so the access logs as reordered.
        // A younger performed same-line write forces the same answer:
        // it may itself log as reordered into this access's perform
        // interval, and moving this access to the counting point would
        // then replay it after that younger write (the Snoop Table is
        // blind to local writes, so only the TRAQ can see this).
        reordered = local_write_pending ||
                    snoopTable_.conflictSince(line, ps.counts);
        if (local_write_pending)
            stats_.counter("local_order_forced_reorders")++;
        if (!reordered) {
            // Moving the perform event across intervals: the access now
            // belongs to the current interval, so its address must enter
            // the current signatures for correct interval ordering
            // (Section 4.2).
            insertSignature(kind, line);
            stats_.counter("moved_across_intervals")++;
        }
        if (sim::TraceSink::enabled()) {
            sim::TraceSink::get()->instant(
                sim::TraceSink::kRecordPid, core_, "traq",
                reordered ? "snoop-table-hit" : "snoop-table-miss", now,
                {{"addr", word_addr},
                 {"pisn", static_cast<std::uint64_t>(ps.pisn)},
                 {"cisn", static_cast<std::uint64_t>(cisn_)},
                 {"policy", stats_.name().c_str()}});
        }
    }

    blockSize_ += nmi_before;
    intervalInstructions_ += nmi_before + 1;
    (*countedMem_)++;

    if (!reordered) {
        ++blockSize_;
    } else {
        flushBlock();
        const sim::Isn delta = cisn_ - ps.pisn;
        RR_ASSERT(delta > 0 && delta < (1ULL << bits::kOffset),
                  "interval offset out of range");
        const auto offset = static_cast<std::uint32_t>(delta);
        if (sim::TraceSink::enabled()) {
            sim::TraceSink::get()->instant(
                sim::TraceSink::kRecordPid, core_, "traq", "reordered",
                now,
                {{"addr", word_addr},
                 {"offset", offset},
                 {"policy", stats_.name().c_str()}});
        }
        switch (kind) {
          case mem::AccessKind::Load:
            current_.entries.push_back(LogEntry::reorderedLoad(load_value));
            stats_.counter("reordered_loads")++;
            break;
          case mem::AccessKind::Store:
            current_.entries.push_back(
                LogEntry::reorderedStore(word_addr, store_value, offset));
            stats_.counter("reordered_stores")++;
            break;
          default:
            current_.entries.push_back(LogEntry::reorderedAtomic(
                word_addr, load_value, store_value, offset));
            stats_.counter("reordered_atomics")++;
            break;
        }
    }

    if (cfg_.maxIntervalInstructions != 0 &&
        intervalInstructions_ >= cfg_.maxIntervalInstructions) {
        stats_.counter("terminations_maxsize")++;
        terminate(Termination::MaxSize, now);
    } else if (faults_ && faults_->forceTerminate(core_)) {
        stats_.counter("terminations_injected")++;
        terminate(Termination::Injected, now);
    }
}

void
IntervalRecorder::flushBlock()
{
    if (blockSize_ == 0)
        return;
    current_.entries.push_back(LogEntry::inorderBlock(blockSize_));
    blockSize_ = 0;
}

void
IntervalRecorder::terminate(Termination why, sim::Cycle now)
{
    flushBlock();
    current_.cisn = cisn_;
    current_.timestamp = clock_.next();
    current_.cycle = now;
    if (sim::TraceSink::enabled()) {
        sim::TraceSink::get()->complete(
            sim::TraceSink::kRecordPid, core_, "interval", stats_.name(),
            intervalStartCycle_, now - intervalStartCycle_,
            {{"cisn", static_cast<std::uint64_t>(cisn_)},
             {"reason", toString(why)},
             {"entries", static_cast<std::uint64_t>(
                             current_.entries.size())},
             {"instructions", intervalInstructions_},
             {"timestamp", current_.timestamp}});
    }
    log_.intervals.push_back(std::move(current_));
    if (sink_)
        sink_(log_.intervals.back());
    current_ = IntervalRecord{};
    ++cisn_;
    intervalInstructions_ = 0;
    intervalStartCycle_ = now;
    readSig_.clear();
    writeSig_.clear();
    stats_.counter("intervals")++;
}

void
IntervalRecorder::maybeDowngrade(sim::Cycle now)
{
    if (mode_ != sim::RecorderMode::Opt || !snoopTable_.saturated())
        return;
    // The Snoop Table can no longer tell "counter moved" from "counter
    // stuck at the cap", so its hit/miss answer is untrustworthy. Base
    // logging needs no counters: fall back for the rest of the run and
    // keep producing a correct (if larger) log instead of aborting.
    mode_ = sim::RecorderMode::Base;
    stats_.counter("opt_base_downgrades")++;
    if (faults_)
        faults_->noteDegradation("opt_base_downgrades");
    sim::warn("core %u (%s): snoop table saturated, downgrading "
              "Opt -> Base logging",
              core_, stats_.name().c_str());
    if (sim::TraceSink::enabled()) {
        sim::TraceSink::get()->instant(
            sim::TraceSink::kRecordPid, core_, "fault", "opt-downgrade",
            now, {{"policy", stats_.name().c_str()}});
    }
}

void
IntervalRecorder::finish(sim::Cycle now)
{
    RR_ASSERT(!finished_, "finish twice");
    if (intervalInstructions_ > 0 || blockSize_ > 0 ||
        !current_.entries.empty()) {
        stats_.counter("terminations_finish")++;
        terminate(Termination::Finish, now);
    }
    finished_ = true;
}

} // namespace rr::rnr
