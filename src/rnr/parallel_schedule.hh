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
 * buildSegmentDag() contracts the DAG to segments, and listSchedule()
 * is the one list schedule over them: on modelled costs with a lane
 * per core it gives buildParallelSchedule()'s bound, on measured
 * durations with a lane per worker the parallel engine's span.
 */

#ifndef RR_RNR_PARALLEL_SCHEDULE_HH
#define RR_RNR_PARALLEL_SCHEDULE_HH

#include <cstdint>
#include <vector>

#include "rnr/log.hh"
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
 * A maximal run of one core's consecutive intervals that the parallel
 * engine replays as a single task: only its first interval may have a
 * cross-core predecessor, and only its last a cross-core successor.
 */
struct ReplaySegment
{
    sim::CoreId core = 0;
    std::uint32_t first = 0; ///< index of the first interval
    std::uint32_t count = 0; ///< intervals in the segment

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

/**
 * Contract @p patched_logs' interval DAG to its segments. Every
 * recorded edge must name an interval of the logs; an edge within one
 * core is program order and adds nothing.
 */
SegmentDag buildSegmentDag(const std::vector<CoreLog> &patched_logs);

/**
 * Greedy list schedule of @p dag on @p lanes lanes, segment s taking
 * @p cost[s]: ready segments (all predecessors finished) start
 * earliest-ready first, each on the earliest-free lane. Returns the
 * span, the last finish. With a lane per core no segment ever waits
 * for a lane, since a core's segments form a chain, so the span is
 * then the DAG's as-soon-as-possible makespan.
 */
double listSchedule(const SegmentDag &dag, const std::vector<double> &cost,
                    std::uint32_t lanes);

/**
 * The modelled parallel replay of a set of patched, dependency-
 * recorded core logs: listSchedule() of their segments, priced with
 * intervalReplayCost(), on one lane per core. Logs without recorded
 * dependencies are legal (the schedule then only honors per-core
 * order, which is NOT sufficient for correct replay — use it only for
 * upper-bound analysis).
 */
ParallelSchedule
buildParallelSchedule(const std::vector<CoreLog> &patched_logs);

} // namespace rr::rnr

#endif // RR_RNR_PARALLEL_SCHEDULE_HH
