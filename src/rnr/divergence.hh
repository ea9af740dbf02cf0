/**
 * @file
 * Replay-divergence diagnostics. When the replayer finds that a log
 * entry does not line up with the program (a corrupted or mismatched
 * log, or a replayer bug), it no longer dies on a bare assertion:
 * it throws a ReplayDivergence carrying a DivergenceReport that names
 * the core, interval and access, shows expected-vs-actual, includes the
 * interval's ordering context, and dumps the last few replay steps of
 * every core from a ring buffer — turning "replay failed" into a
 * debuggable artifact.
 */

#ifndef RR_RNR_DIVERGENCE_HH
#define RR_RNR_DIVERGENCE_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "rnr/log.hh"
#include "sim/types.hh"

namespace rr::rnr
{

/** One recent replay step kept in the per-core diagnostic ring buffer. */
struct ReplayStep
{
    sim::CoreId core = 0;
    std::uint32_t interval = 0; ///< index into the core's log
    std::uint32_t entry = 0;    ///< entry index within that interval
    EntryKind kind = EntryKind::InorderBlock;
    std::uint64_t pc = 0; ///< pc when the entry started replaying
    /** Injected / stored value, or block size for InorderBlock. */
    std::uint64_t value = 0;
    sim::Addr addr = 0;
};

/** Everything known about a replay mismatch at the point of failure. */
struct DivergenceReport
{
    sim::CoreId core = 0;
    std::uint32_t intervalIndex = 0; ///< index into the core's log
    std::uint32_t entryIndex = 0;    ///< offending entry in that interval
    std::uint64_t pc = 0;            ///< pc at the failed step
    /** The offending log entry (value/address/offset context). */
    LogEntry entry;
    /** What the log demanded at this point. */
    std::string expected;
    /** What the program / replay context actually provided. */
    std::string actual;

    // Interval-ordering context.
    std::uint64_t timestamp = 0;     ///< the interval's global timestamp
    std::uint64_t orderPosition = 0; ///< intervals replayed before this one
    std::vector<IntervalDep> predecessors;

    /** Last replay steps of every core, oldest first. */
    std::vector<ReplayStep> recentSteps;

    /** Multi-line human-readable rendering. */
    std::string format() const;
};

/** Thrown by the replayer instead of asserting on a log mismatch. */
class ReplayDivergence : public std::runtime_error
{
  public:
    explicit ReplayDivergence(DivergenceReport report);

    const DivergenceReport &report() const { return report_; }
    /** The engine fills recentSteps from its rings before re-throwing. */
    DivergenceReport &mutableReport() { return report_; }

  private:
    DivergenceReport report_;
};

} // namespace rr::rnr

#endif // RR_RNR_DIVERGENCE_HH
