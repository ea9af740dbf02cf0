#include "rnr/parallel_schedule.hh"

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>

#include "rnr/replay_cost.hh"
#include "sim/logging.hh"

namespace rr::rnr
{

SegmentDag
buildSegmentDag(const std::vector<CoreLog> &patched_logs)
{
    SegmentDag dag;
    const std::size_t cores = patched_logs.size();

    // Intervals get flat ids: base[core] + index.
    std::vector<std::uint32_t> base(cores + 1, 0);
    for (std::size_t c = 0; c < cores; ++c)
        base[c + 1] = base[c] + static_cast<std::uint32_t>(
                                    patched_logs[c].intervals.size());
    const std::uint32_t total = base[cores];
    dag.intervals = total;

    // Mark the cut points and collect the cross-core edges. The
    // recorder keeps at most one predecessor per source core, so no
    // edge appears twice; a duplicate would still be harmless, as it
    // is counted in the in-degree exactly as often as it is released.
    constexpr std::uint8_t kCrossPred = 1, kCrossSucc = 2;
    std::vector<std::uint8_t> cut(total, 0);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    for (std::size_t c = 0; c < cores; ++c) {
        const auto &intervals = patched_logs[c].intervals;
        for (std::size_t i = 0; i < intervals.size(); ++i) {
            const std::uint32_t me =
                base[c] + static_cast<std::uint32_t>(i);
            for (const IntervalDep &d : intervals[i].predecessors) {
                RR_ASSERT(d.core < cores &&
                              d.isn < patched_logs[d.core].intervals.size(),
                          "dependency edge escapes the logs");
                if (d.core == c)
                    continue;
                const std::uint32_t pred =
                    base[d.core] + static_cast<std::uint32_t>(d.isn);
                cut[me] |= kCrossPred;
                cut[pred] |= kCrossSucc;
                edges.emplace_back(pred, me);
            }
        }
    }

    // Cut every core's chain into segments.
    std::vector<std::uint32_t> segment_of(total);
    for (std::size_t c = 0; c < cores; ++c) {
        for (std::uint32_t id = base[c]; id < base[c + 1]; ++id) {
            if (id == base[c] || (cut[id] & kCrossPred) ||
                (cut[id - 1] & kCrossSucc))
                dag.segments.push_back(ReplaySegment{
                    static_cast<sim::CoreId>(c), id - base[c], 0});
            ++dag.segments.back().count;
            segment_of[id] = static_cast<std::uint32_t>(
                dag.segments.size() - 1);
        }
    }

    // Successor lists: the same core's next segment, then one entry
    // per cross-core edge (each edge leaves a segment's last interval
    // and enters another's first, so it maps to exactly one pair).
    const auto segments = static_cast<std::uint32_t>(dag.segments.size());
    dag.indegree.assign(segments, 0);
    dag.succBegin.assign(segments + 1, 0);
    const auto chained = [&](std::uint32_t s) {
        return s + 1 < segments &&
               dag.segments[s + 1].core == dag.segments[s].core;
    };
    for (std::uint32_t s = 0; s < segments; ++s) {
        if (chained(s)) {
            ++dag.succBegin[s + 1];
            ++dag.indegree[s + 1];
        }
    }
    for (const auto &[from, to] : edges) {
        ++dag.succBegin[segment_of[from] + 1];
        ++dag.indegree[segment_of[to]];
    }
    for (std::uint32_t s = 0; s < segments; ++s)
        dag.succBegin[s + 1] += dag.succBegin[s];
    dag.succ.resize(dag.succBegin[segments]);
    std::vector<std::uint32_t> fill(dag.succBegin.begin(),
                                    dag.succBegin.end() - 1);
    for (std::uint32_t s = 0; s < segments; ++s)
        if (chained(s))
            dag.succ[fill[s]++] = s + 1;
    for (const auto &[from, to] : edges)
        dag.succ[fill[segment_of[from]]++] = segment_of[to];
    return dag;
}

double
listSchedule(const SegmentDag &dag, const std::vector<double> &cost,
             std::uint32_t lanes)
{
    const auto segments = static_cast<std::uint32_t>(dag.segments.size());
    std::vector<std::uint32_t> preds_left(dag.indegree);
    std::vector<double> ready_at(segments, 0.0);
    using Ready = std::pair<double, std::uint32_t>;
    std::priority_queue<Ready, std::vector<Ready>, std::greater<>> ready;
    for (std::uint32_t s = 0; s < segments; ++s)
        if (preds_left[s] == 0)
            ready.push({0.0, s});
    std::priority_queue<double, std::vector<double>, std::greater<>>
        lane_free;
    for (std::uint32_t l = 0; l < lanes; ++l)
        lane_free.push(0.0);

    double span = 0.0;
    std::uint32_t scheduled = 0;
    while (!ready.empty()) {
        const auto [at, s] = ready.top();
        ready.pop();
        const double finish = std::max(at, lane_free.top()) + cost[s];
        lane_free.pop();
        lane_free.push(finish);
        span = std::max(span, finish);
        ++scheduled;
        for (std::uint32_t k = dag.succBegin[s]; k != dag.succBegin[s + 1];
             ++k) {
            const std::uint32_t succ = dag.succ[k];
            ready_at[succ] = std::max(ready_at[succ], finish);
            if (--preds_left[succ] == 0)
                ready.push({ready_at[succ], succ});
        }
    }
    RR_ASSERT(scheduled == segments,
              "list schedule stalled: %u of %u segments ran "
              "(dependency cycle?)",
              scheduled, segments);
    return span;
}

ParallelSchedule
buildParallelSchedule(const std::vector<CoreLog> &patched_logs)
{
    ParallelSchedule sched;
    const SegmentDag dag = buildSegmentDag(patched_logs);
    std::vector<double> cost;
    cost.reserve(dag.segments.size());
    for (const ReplaySegment &seg : dag.segments) {
        // Every cost is an integer below 2^53, so the double sums and
        // the span are exact.
        std::uint64_t work = 0;
        for (std::uint32_t i = seg.first; i != seg.first + seg.count; ++i) {
            const IntervalRecord &iv = patched_logs[seg.core].intervals[i];
            work += intervalReplayCost(iv).total();
            sched.edges += iv.predecessors.size();
        }
        cost.push_back(static_cast<double>(work));
        sched.totalWork += work;
    }
    sched.intervals = dag.intervals;
    // One lane per core: the cores of the replay machine.
    sched.makespan = static_cast<std::uint64_t>(listSchedule(
        dag, cost,
        static_cast<std::uint32_t>(
            std::max<std::size_t>(patched_logs.size(), 1))));
    return sched;
}

} // namespace rr::rnr
