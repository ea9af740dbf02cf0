/**
 * @file
 * The replay cost model of Figure 13: what replaying a log entry and an
 * interval costs, in modelled cycles. The interval interpreter (the
 * replay engine, in either order) and the parallel schedule price
 * replay with the one function here, so the engine's cost and the
 * schedule's work agree by construction.
 *
 * The paper's control module is linked into the application (Section
 * 5.1), so "OS" costs are user-level: an end-of-block interrupt is a
 * pipeline flush plus a handler entry/exit, interval ordering uses
 * emulated condition variables, and reordered accesses are emulated in
 * software. The constants are calibrated to those magnitudes.
 */

#ifndef RR_RNR_REPLAY_COST_HH
#define RR_RNR_REPLAY_COST_HH

#include <cstdint>

#include "rnr/log.hh"

namespace rr::rnr
{

/**
 * Native IPC of uncontended in-order block replay. Replay runs the
 * same code without coherence contention; its IPC approaches the
 * recorded per-core IPC.
 */
inline constexpr double kReplayIpc = 2.5;
/** End-of-InorderBlock interrupt: flush + handler entry/exit. */
inline constexpr std::uint64_t kInterruptCost = 150;
/** Log decode cost per entry, cycles. */
inline constexpr std::uint64_t kPerEntryCost = 20;
/** Software emulation of one reordered, dummy or patched access. */
inline constexpr std::uint64_t kPerReorderedCost = 150;
/** Interval ordering hand-off (emulated condition variable). */
inline constexpr std::uint64_t kPerIntervalCost = 400;

/** Replay cycle estimate, split as in Figure 13. */
struct ReplayCost
{
    std::uint64_t userCycles = 0;
    std::uint64_t osCycles = 0;

    std::uint64_t total() const { return userCycles + osCycles; }

    ReplayCost &
    operator+=(const ReplayCost &o)
    {
        userCycles += o.userCycles;
        osCycles += o.osCycles;
        return *this;
    }

    bool operator==(const ReplayCost &) const = default;
};

/**
 * What replaying @p e costs: an in-order block runs natively (User)
 * and ends in an interrupt; every other entry is emulated in software.
 * Each entry also pays its decode.
 */
inline ReplayCost
entryReplayCost(const LogEntry &e)
{
    if (e.kind == EntryKind::InorderBlock)
        return {static_cast<std::uint64_t>(
                    static_cast<double>(e.blockSize) / kReplayIpc),
                kPerEntryCost + kInterruptCost};
    return {0, kPerEntryCost + kPerReorderedCost};
}

/** What replaying @p iv costs: its entries plus the ordering hand-off. */
inline ReplayCost
intervalReplayCost(const IntervalRecord &iv)
{
    ReplayCost cost{0, kPerIntervalCost};
    for (const LogEntry &e : iv.entries)
        cost += entryReplayCost(e);
    return cost;
}

} // namespace rr::rnr

#endif // RR_RNR_REPLAY_COST_HH
