/**
 * @file
 * Parallel replay scheduling over dependency-recorded logs (Section
 * 3.6: pairing RelaxReplay with an interval ordering that admits
 * parallel replay, as Cyrus and Karma do for chunks).
 *
 * With recordDependencies enabled, every interval carries explicit
 * predecessor edges; together with each core's implicit program order
 * they form a DAG. Replaying intervals in *any* topological order of
 * that DAG reproduces the recorded execution (verified by the
 * integration tests), so the cores of the replay machine can work on
 * independent intervals concurrently.
 *
 * buildParallelSchedule() computes, with the ReplayCostModel, the
 * makespan of a list-schedule in which every core replays its own
 * intervals in order, starting each as soon as its cross-core
 * predecessors finish (the parallel replay the paper alludes to),
 * together with the total (sequential) work and the available
 * speedup.
 */

#ifndef RR_RNR_PARALLEL_SCHEDULE_HH
#define RR_RNR_PARALLEL_SCHEDULE_HH

#include <cstdint>
#include <vector>

#include "rnr/log.hh"
#include "rnr/replay_cost.hh"
#include "sim/types.hh"

namespace rr::rnr
{

struct ParallelSchedule
{
    /** Intervals across all cores. */
    std::uint64_t intervals = 0;
    /** Parallel replay cycles (cores replay concurrently). */
    std::uint64_t makespan = 0;
    /** Sequential replay cycles (sum of all interval costs). */
    std::uint64_t totalWork = 0;
    /** Total recorded dependency edges. */
    std::uint64_t edges = 0;

    double
    speedup() const
    {
        return makespan ? static_cast<double>(totalWork) /
                              static_cast<double>(makespan)
                        : 1.0;
    }
};

/**
 * Build the parallel schedule for a set of patched, dependency-
 * recorded core logs. Logs without recorded dependencies are legal
 * (the schedule then only honors per-core order, which is NOT
 * sufficient for correct replay — use it only for upper-bound
 * analysis).
 */
ParallelSchedule
buildParallelSchedule(const std::vector<CoreLog> &patched_logs,
                      const ReplayCostModel &model = {});

/** Replay cycles of one interval under the cost model. */
std::uint64_t intervalReplayCost(const IntervalRecord &iv,
                                 const ReplayCostModel &model);

/**
 * A maximal run of one core's consecutive intervals that the parallel
 * engine replays as a single task: only its first interval may have a
 * cross-core predecessor, and only its last a cross-core successor.
 */
struct ReplaySegment
{
    sim::CoreId core = 0;
    std::uint32_t first = 0; ///< index of the first interval
    std::uint32_t count = 0; ///< intervals in the segment
    /**
     * Publish the core's write set when the segment ends: set when the
     * segment has a cross-core successor or is its core's last one.
     */
    bool commit = false;

    bool operator==(const ReplaySegment &) const = default;
};

/**
 * The interval DAG contracted to segments. Each core's chain is cut
 * before every interval with a cross-core predecessor and after every
 * interval with a cross-core successor, so contracting loses no
 * parallelism: a segment's intervals could only ever run one after
 * another. Successor lists are one flat array indexed by offsets.
 */
struct SegmentDag
{
    /** Core-major: a core's segments are adjacent, in program order. */
    std::vector<ReplaySegment> segments;
    /** Successors of segment s: succ[succBegin[s] .. succBegin[s+1]). */
    std::vector<std::uint32_t> succBegin;
    std::vector<std::uint32_t> succ;
    /** Number of predecessors of each segment. */
    std::vector<std::uint32_t> indegree;
    /** Intervals across all cores. */
    std::uint64_t intervals = 0;
};

/** Contract @p patched_logs' interval DAG to its segments. */
SegmentDag buildSegmentDag(const std::vector<CoreLog> &patched_logs);

} // namespace rr::rnr

#endif // RR_RNR_PARALLEL_SCHEDULE_HH
