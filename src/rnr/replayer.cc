#include "rnr/replayer.hh"

#include <algorithm>
#include <chrono>
#include <deque>

#include "rnr/interval_interpreter.hh"
#include "rnr/patcher.hh"
#include "sim/logging.hh"

namespace rr::rnr
{

Replayer::Replayer(isa::Program prog, std::vector<CoreLog> patched_logs,
                   mem::BackingStore initial_memory,
                   std::function<bool()> abort_check)
    : prog_(std::move(prog)), logs_(std::move(patched_logs)),
      memory_(std::move(initial_memory)),
      abortCheck_(std::move(abort_check))
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

    const IntervalInterpreter interp(prog_, logs_, loadHook_, abortCheck_);
    ReplayResult res;
    for (std::size_t c = 0; c < logs_.size(); ++c)
        res.contexts.push_back(
            interp.startContext(static_cast<sim::CoreId>(c)));
    std::vector<IntervalInterpreter::Accum> acc(logs_.size());
    // Per-core ring of the last kRingDepth replay steps.
    std::vector<std::deque<ReplayStep>> rings(logs_.size());
    std::vector<std::uint32_t> next(logs_.size(), 0);
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t position = 0;
    try {
        for (; position < refs.size(); ++position) {
            const IntervalRef &it = refs[position];
            RR_ASSERT(it.index == next[it.core],
                      "order violates core %u's interval sequence",
                      it.core);
            ++next[it.core];
            interp.replayInterval(it.core, it.index, res.contexts[it.core],
                                  memory_, rings[it.core], acc[it.core]);
        }
    } catch (ReplayDivergence &d) {
        DivergenceReport &report = d.mutableReport();
        report.orderPosition = position;
        // Rings are chronological per core; concatenate in core order.
        for (const auto &ring : rings)
            for (const ReplayStep &s : ring)
                report.recentSteps.push_back(s);
        throw;
    }
    const auto t1 = std::chrono::steady_clock::now();

    for (const IntervalInterpreter::Accum &a : acc)
        a.addTo(res);
    res.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    res.workers = 1;
    res.memory = std::move(memory_);
    return res;
}

} // namespace rr::rnr
