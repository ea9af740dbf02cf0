#include "rnr/replayer.hh"

#include <algorithm>
#include <chrono>

#include "rnr/interval_interpreter.hh"
#include "rnr/patcher.hh"
#include "sim/logging.hh"

namespace rr::rnr
{

Replayer::Replayer(isa::Program prog, std::vector<CoreLog> patched_logs,
                   mem::BackingStore initial_memory)
    : prog_(std::move(prog)), logs_(std::move(patched_logs)),
      memory_(std::move(initial_memory)), recentSteps_(logs_.size())
{
    for (const auto &log : logs_)
        RR_ASSERT(isPatched(log), "replayer requires a patched log");
}

ReplayResult
Replayer::run()
{
    // The recorded total order: intervals sorted by their (globally
    // unique) termination timestamps.
    struct IntervalRef
    {
        std::uint64_t timestamp;
        sim::CoreId core;
        std::uint32_t index;
    };
    std::vector<IntervalRef> refs;
    for (std::size_t c = 0; c < logs_.size(); ++c) {
        for (std::size_t i = 0; i < logs_[c].intervals.size(); ++i) {
            refs.push_back(IntervalRef{logs_[c].intervals[i].timestamp,
                                       static_cast<sim::CoreId>(c),
                                       static_cast<std::uint32_t>(i)});
        }
    }
    std::sort(refs.begin(), refs.end(),
              [](const IntervalRef &a, const IntervalRef &b) {
                  return a.timestamp < b.timestamp;
              });

    ReplayResult res;
    res.contexts.resize(logs_.size());
    for (std::size_t c = 0; c < logs_.size(); ++c) {
        auto &ctx = res.contexts[c];
        ctx.pc = prog_.entryFor(static_cast<std::uint32_t>(c));
        ctx.writeReg(isa::kRegThreadId, c);
        ctx.writeReg(isa::kRegNumThreads, logs_.size());
    }

    const IntervalInterpreter interp(prog_, logs_, costModel_);
    std::vector<IntervalInterpreter::Accum> acc(logs_.size());
    std::vector<std::uint32_t> next(logs_.size(), 0);
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t position = 0;
    try {
        for (const IntervalRef &it : refs) {
            RR_ASSERT(it.index == next[it.core],
                      "order violates core %u's interval sequence",
                      it.core);
            ++next[it.core];
            interp.replayInterval(it.core, it.index, position++,
                                  res.contexts[it.core], memory_,
                                  loadHook_, recentSteps_[it.core],
                                  acc[it.core]);
            ++res.intervals;
        }
    } catch (ReplayDivergence &d) {
        // Rings are chronological per core; concatenate in core order.
        auto &steps = d.mutableReport().recentSteps;
        for (const auto &ring : recentSteps_)
            for (const ReplayStep &s : ring)
                steps.push_back(s);
        throw;
    }
    const auto t1 = std::chrono::steady_clock::now();

    for (const IntervalInterpreter::Accum &a : acc) {
        res.instructions += a.instructions;
        res.cost.userCycles += a.cost.userCycles;
        res.cost.osCycles += a.cost.osCycles;
        res.loadHashes.push_back(a.loadHash);
        res.loadCounts.push_back(a.loads);
    }
    res.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    res.workers = 1;
    res.memory = std::move(memory_);
    return res;
}

} // namespace rr::rnr
