#include "rnr/interval_interpreter.hh"

#include <algorithm>

#include "rnr/replayer.hh"
#include "sim/logging.hh"

namespace rr::rnr
{

namespace
{

/** Render the instruction at @p pc (or the halted state) for a report. */
std::string
describeProgramPoint(const isa::Program &prog, const isa::ExecContext &ctx)
{
    if (ctx.halted)
        return "core already halted";
    return sim::strfmt("pc %llu: %s",
                       static_cast<unsigned long long>(ctx.pc),
                       isa::disassemble(prog.at(ctx.pc)).c_str());
}

/** Remember one replay step in a core's ring buffer. */
void
noteStep(std::deque<ReplayStep> &ring, const ReplayStep &step)
{
    if (ring.size() >= IntervalInterpreter::kRingDepth)
        ring.pop_front();
    ring.push_back(step);
}

} // namespace

void
IntervalInterpreter::Accum::addTo(ReplayResult &res) const
{
    res.instructions += instructions;
    res.cost += cost;
    res.intervals += intervals;
    res.loadHashes.push_back(loadHash);
    res.loadCounts.push_back(loads);
}

isa::ExecContext
IntervalInterpreter::startContext(sim::CoreId core) const
{
    isa::ExecContext ctx;
    ctx.pc = prog_.entryFor(core);
    ctx.writeReg(isa::kRegThreadId, core);
    ctx.writeReg(isa::kRegNumThreads, logs_.size());
    return ctx;
}

void
IntervalInterpreter::pollAbort() const
{
    if (abort_ && abort_())
        throw ReplayAborted();
}

void
IntervalInterpreter::diverge(sim::CoreId core, std::uint32_t interval_index,
                             std::uint32_t entry_index, std::uint64_t pc,
                             const LogEntry &entry, std::string expected,
                             std::string actual) const
{
    const IntervalRecord &iv = logs_[core].intervals[interval_index];
    DivergenceReport report;
    report.core = core;
    report.intervalIndex = interval_index;
    report.entryIndex = entry_index;
    report.pc = pc;
    report.entry = entry;
    report.expected = std::move(expected);
    report.actual = std::move(actual);
    report.timestamp = iv.timestamp;
    report.predecessors = iv.predecessors;
    // orderPosition and recentSteps stay empty here: the engine fills
    // them in before re-throwing (see Replayer::run).
    throw ReplayDivergence(std::move(report));
}

void
IntervalInterpreter::replayInterval(sim::CoreId core,
                                    std::uint32_t interval_index,
                                    isa::ExecContext &ctx,
                                    isa::MemoryIf &mem,
                                    std::deque<ReplayStep> &ring,
                                    Accum &acc) const
{
    pollAbort();
    const IntervalRecord &iv = logs_[core].intervals[interval_index];
    // Fold one replayed load/atomic value into the core's digest.
    const auto on_load = [&](std::uint64_t value) {
        acc.loadHash = mixLoadValue(acc.loadHash, value);
        ++acc.loads;
        if (hook_)
            hook_(core, value);
    };
    std::uint64_t until_poll = kAbortPollInstructions;

    for (std::uint32_t ei = 0; ei < iv.entries.size(); ++ei) {
        const LogEntry &e = iv.entries[ei];
        std::uint64_t step_value = e.loadValue;
        if (e.kind == EntryKind::InorderBlock)
            step_value = e.blockSize;
        else if (e.kind == EntryKind::ReorderedStore ||
                 e.kind == EntryKind::PatchedStore)
            step_value = e.storeValue;
        noteStep(ring, ReplayStep{core, interval_index, ei, e.kind,
                                  ctx.pc, step_value, e.addr});
        acc.cost += entryReplayCost(e);
        switch (e.kind) {
          case EntryKind::InorderBlock: {
            std::uint64_t done = 0;
            while (done < e.blockSize) {
                if (until_poll == 0) {
                    pollAbort();
                    until_poll = kAbortPollInstructions;
                }
                const std::uint64_t want =
                    std::min(e.blockSize - done, until_poll);
                const std::uint64_t ran =
                    isa::run(prog_, ctx, mem, want, on_load);
                done += ran;
                until_poll -= ran;
                // Only a Halt stops run() early.
                if (ran < want) {
                    diverge(core, interval_index, ei, ctx.pc, e,
                            sim::strfmt("%llu more executable "
                                        "instructions (%llu of %llu "
                                        "replayed)",
                                        static_cast<unsigned long long>(
                                            e.blockSize - done),
                                        static_cast<unsigned long long>(
                                            done),
                                        static_cast<unsigned long long>(
                                            e.blockSize)),
                            "core already halted");
                }
            }
            acc.instructions += e.blockSize;
            break;
          }
          case EntryKind::ReorderedLoad: {
            if (ctx.halted || !prog_.at(ctx.pc).isLoad()) {
                diverge(core, interval_index, ei, ctx.pc, e,
                        "a load instruction",
                        describeProgramPoint(prog_, ctx));
            }
            const isa::Instruction &inst = prog_.at(ctx.pc);
            ctx.writeReg(inst.rd, e.loadValue);
            ++ctx.pc;
            ++ctx.instructions;
            ++acc.instructions;
            on_load(e.loadValue);
            break;
          }
          case EntryKind::DummyStore: {
            if (ctx.halted || !prog_.at(ctx.pc).isStore()) {
                diverge(core, interval_index, ei, ctx.pc, e,
                        "a store instruction",
                        describeProgramPoint(prog_, ctx));
            }
            ++ctx.pc;
            ++ctx.instructions;
            ++acc.instructions;
            break;
          }
          case EntryKind::DummyAtomic: {
            if (ctx.halted || !prog_.at(ctx.pc).isAtomic()) {
                diverge(core, interval_index, ei, ctx.pc, e,
                        "an atomic instruction",
                        describeProgramPoint(prog_, ctx));
            }
            const isa::Instruction &inst = prog_.at(ctx.pc);
            ctx.writeReg(inst.rd, e.loadValue);
            ++ctx.pc;
            ++ctx.instructions;
            ++acc.instructions;
            on_load(e.loadValue);
            break;
          }
          case EntryKind::PatchedStore:
            // The store instruction itself replays (as a dummy) in the
            // interval where it was counted; only its memory effect
            // belongs here, at the end of its perform interval.
            mem.write64(e.addr, e.storeValue);
            break;
          case EntryKind::ReorderedStore:
          case EntryKind::ReorderedAtomic:
            diverge(core, interval_index, ei, ctx.pc, e,
                    "a patched log (ReorderedStore/Atomic rewritten by "
                    "rnr::patch)",
                    "an unpatched recording-side entry");
        }
    }
    // Interval ordering hand-off (emulated condition variable).
    acc.cost.osCycles += kPerIntervalCost;
    ++acc.intervals;
}

} // namespace rr::rnr
