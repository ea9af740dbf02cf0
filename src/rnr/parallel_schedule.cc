#include "rnr/parallel_schedule.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace rr::rnr
{

std::uint64_t
intervalReplayCost(const IntervalRecord &iv, const ReplayCostModel &m)
{
    std::uint64_t cost = m.perIntervalCost;
    for (const LogEntry &e : iv.entries) {
        cost += m.perEntryCost;
        switch (e.kind) {
          case EntryKind::InorderBlock:
            cost += static_cast<std::uint64_t>(
                        static_cast<double>(e.blockSize) / m.replayIpc) +
                    m.interruptCost;
            break;
          case EntryKind::ReorderedLoad:
          case EntryKind::ReorderedStore:
          case EntryKind::ReorderedAtomic:
          case EntryKind::PatchedStore:
          case EntryKind::DummyStore:
          case EntryKind::DummyAtomic:
            cost += m.perReorderedCost;
            break;
        }
    }
    return cost;
}

ParallelSchedule
buildParallelSchedule(const std::vector<CoreLog> &patched_logs,
                      const ReplayCostModel &model)
{
    ParallelSchedule sched;

    // Process intervals in recorded timestamp order: every dependency
    // edge points to an interval that closed earlier, so this is a
    // topological order in which starts/finishes can be computed in a
    // single pass.
    struct Ref
    {
        std::uint64_t timestamp;
        sim::CoreId core;
        std::uint32_t index;
    };
    std::vector<Ref> refs;
    for (std::size_t c = 0; c < patched_logs.size(); ++c) {
        for (std::size_t i = 0; i < patched_logs[c].intervals.size();
             ++i) {
            refs.push_back(Ref{patched_logs[c].intervals[i].timestamp,
                               static_cast<sim::CoreId>(c),
                               static_cast<std::uint32_t>(i)});
        }
    }
    std::sort(refs.begin(), refs.end(), [](const Ref &a, const Ref &b) {
        return a.timestamp < b.timestamp;
    });

    std::vector<std::vector<std::uint64_t>> finish(patched_logs.size());
    for (std::size_t c = 0; c < patched_logs.size(); ++c)
        finish[c].resize(patched_logs[c].intervals.size(), 0);

    for (const Ref &ref : refs) {
        const IntervalRecord &iv =
            patched_logs[ref.core].intervals[ref.index];
        const std::uint64_t cost = intervalReplayCost(iv, model);

        std::uint64_t start = 0;
        if (ref.index > 0)
            start = finish[ref.core][ref.index - 1];
        for (const IntervalDep &d : iv.predecessors) {
            RR_ASSERT(d.core < patched_logs.size() &&
                          d.isn < finish[d.core].size(),
                      "dependency edge escapes the logs");
            start = std::max(start, finish[d.core][d.isn]);
            ++sched.edges;
        }
        finish[ref.core][ref.index] = start + cost;

        ++sched.intervals;
        sched.totalWork += cost;
        sched.makespan = std::max(sched.makespan, start + cost);
    }
    return sched;
}

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
                if (d.core == c)
                    continue;
                RR_ASSERT(d.core < cores &&
                              d.isn < patched_logs[d.core].intervals.size(),
                          "dependency edge escapes the logs");
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
                    static_cast<sim::CoreId>(c), id - base[c], 0, false});
            ReplaySegment &seg = dag.segments.back();
            ++seg.count;
            // Rewritten per interval: what counts is the last one's.
            seg.commit = (cut[id] & kCrossSucc) != 0 ||
                         id + 1 == base[c + 1];
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

} // namespace rr::rnr
