/**
 * @file
 * Deterministic replay of RelaxReplay logs (paper Section 3.5).
 *
 * The replayer plays the role of the OS module plus the minimal hardware
 * support (an instruction counter with a synchronous interrupt): it
 * enforces the recorded total order of intervals and, per interval,
 * executes InorderBlocks natively (here: through the functional
 * interpreter), injects values for ReorderedLoads, applies PatchedStores
 * at perform-interval ends and skips Dummy entries.
 *
 * Replay is *exact*: the determinism tests require every replayed load
 * value and the final memory/register state to match the recorded
 * execution. The replay cost model (replay_cost.hh) estimates User/OS
 * cycles for Figure 13, mirroring how the paper links its control
 * module with the application to measure replay overhead.
 */

#ifndef RR_RNR_REPLAYER_HH
#define RR_RNR_REPLAYER_HH

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "isa/program.hh"
#include "mem/backing_store.hh"
#include "rnr/divergence.hh"
#include "rnr/log.hh"
#include "rnr/replay_cost.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace rr::rnr
{

struct ReplayResult
{
    /** Instructions architecturally replayed, across all cores. */
    std::uint64_t instructions = 0;
    /** Memory image after replay. */
    mem::BackingStore memory;
    /** Final architectural context per core. */
    std::vector<isa::ExecContext> contexts;
    /** Timing estimate (modelled cycles, not wall-clock). */
    ReplayCost cost;
    /** Intervals processed. */
    std::uint64_t intervals = 0;
    /**
     * Per-core digest of the replayed load/atomic values: the
     * rnr::mixLoadValue chain in program order and the number of
     * values in it. Determinism checks compare them with the
     * recording's CoreReplaySummary loadValueHash / retiredLoads.
     */
    std::vector<std::uint64_t> loadHashes;
    std::vector<std::uint64_t> loadCounts;

    // Engine execution measurements (host wall-clock, not modelled).
    /** Measured wall-clock seconds spent replaying. */
    double wallSeconds = 0.0;
    /** Worker threads the engine used (1 for sequential replay). */
    std::uint32_t workers = 1;
    /**
     * Sum of measured per-interval replay durations (the serial
     * execution time the DAG schedule is compared against). Parallel
     * engine only; 0 for sequential replay.
     */
    double measuredSerialSeconds = 0.0;
    /**
     * Makespan of the measured-duration listSchedule() on `workers`
     * lanes: the wall-clock this run's DAG supports given that many
     * hardware threads. measuredSerialSeconds / measuredSpanSeconds
     * is the measured speedup (host-CPU-count independent).
     */
    double measuredSpanSeconds = 0.0;
    /**
     * Engine counters: per-worker busy seconds/tasks and aggregate
     * utilization (parallel engine), empty for sequential replay.
     */
    sim::StatSet engineStats{"replay_engine"};
};

/**
 * Thrown by Replayer::run() and ParallelReplayer::run() when their
 * abort check fired: the replay was cancelled, not wrong.
 */
struct ReplayAborted : std::runtime_error
{
    ReplayAborted() : std::runtime_error("replay aborted") {}
};

class Replayer
{
  public:
    /**
     * @param prog The recorded program.
     * @param patched_logs One patched CoreLog per core (see patcher.hh).
     * @param initial_memory The memory image recording started from.
     * @param abort_check Cooperative abort, optional: polled before
     *        every interval and at least once every
     *        IntervalInterpreter::kAbortPollInstructions instructions
     *        inside one; once it returns true, run() throws
     *        ReplayAborted. Used by the replay service for job
     *        cancellation and timeouts.
     */
    Replayer(isa::Program prog, std::vector<CoreLog> patched_logs,
             mem::BackingStore initial_memory,
             std::function<bool()> abort_check = {});

    /**
     * Observe every replayed load/atomic value. Optional: the result's
     * loadHashes/loadCounts already digest them.
     */
    void
    setLoadHook(std::function<void(sim::CoreId, std::uint64_t)> hook)
    {
        loadHook_ = std::move(hook);
    }

    /**
     * Run the whole replay sequentially, in recorded timestamp order;
     * each core's timestamps must rise with its interval index. Throws
     * ReplayDivergence (see divergence.hh) when a log entry does not
     * line up with the program — e.g. a corrupted log.
     */
    ReplayResult run();

  private:
    /** Owned copy: callers may pass temporaries. */
    const isa::Program prog_;
    std::vector<CoreLog> logs_;
    mem::BackingStore memory_;
    std::function<bool()> abortCheck_;
    std::function<void(sim::CoreId, std::uint64_t)> loadHook_;
};

} // namespace rr::rnr

#endif // RR_RNR_REPLAYER_HH
