/**
 * @file
 * Deterministic replay of RelaxReplay logs (paper Sections 3.5 and
 * 3.6): the one replay engine.
 *
 * The replayer plays the role of the OS module plus the minimal hardware
 * support (an instruction counter with a synchronous interrupt): per
 * interval, it executes InorderBlocks natively (here: through the
 * functional interpreter), injects values for ReorderedLoads, applies
 * PatchedStores at perform-interval ends and skips Dummy entries.
 *
 * One rule picks the order. By default the engine walks the recorded
 * total order (intervals by timestamp) on the calling thread. Offered
 * more than one worker for a multi-core recording in which some
 * interval has a cross-core predecessor (Cyrus/Karma-style edges,
 * RecorderConfig::recordDependencies), it fans out instead: the
 * interval DAG, contracted to segments (parallel_schedule.hh), runs on
 * a sim::TaskPool, each segment a task gated by an atomic in-degree.
 * Without cross-core edges the DAG would not order the cores' shared
 * accesses, so such logs never fan out.
 *
 * Both orders replay through one per-core state straight against one
 * shared image. On the DAG that is sound because the recorded order
 * orders every cross-core pair of same-word accesses with a store, a
 * core's segments run one at a time, and a segment's stores precede
 * the acquire/release of its successors' in-degrees. So memory,
 * contexts, load digests and modelled cost are bit-identical at any
 * worker count, which the replay check (tests/integration/
 * replay_check.hh) enforces at 1, 2, 4 and 8 workers. The replay cost
 * model (replay_cost.hh) estimates User/OS cycles for Figure 13.
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
    /**
     * Worker threads the engine used: 1 when it walked the recorded
     * order on the calling thread, more only when it fanned out.
     */
    std::uint32_t workers = 1;
    // The rest is set only when the replay fanned out.
    /**
     * Sum of measured per-segment replay durations (the serial
     * execution time the DAG schedule is compared against).
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
     * Scheduling counters: segments, tasks, per-worker busy and CPU
     * seconds, utilization, CPU concurrency, the measured schedule.
     */
    sim::StatSet engineStats{"replay_engine"};
};

/**
 * Thrown by Replayer::run() when its abort check fired: the replay was
 * cancelled, not wrong.
 */
struct ReplayAborted : std::runtime_error
{
    ReplayAborted() : std::runtime_error("replay aborted") {}
};

struct ReplayOptions
{
    /**
     * Worker threads the engine may use; 0 = all hardware threads.
     * It fans out over min(resolveJobs(workers), cores) of them, and
     * only when the logs carry a cross-core dependency edge; otherwise
     * it walks the recorded order on the calling thread.
     */
    std::uint32_t workers = 1;
    /**
     * Cooperative abort, optional: polled before every interval and at
     * least once every IntervalInterpreter::kAbortPollInstructions
     * instructions inside one (by every worker, when the replay fans
     * out). Once it returns true, pending work is dropped, running
     * segments stop at their next poll, and run() throws
     * ReplayAborted; replay state is abandoned. Used by the replay
     * service for job cancellation and timeouts.
     */
    std::function<bool()> abortCheck;
};

class Replayer
{
  public:
    /**
     * @param prog The recorded program.
     * @param patched_logs One patched CoreLog per core (see patcher.hh);
     *        an entry patching should have rewritten makes run() throw
     *        ReplayDivergence.
     * @param initial_memory The memory image recording started from.
     */
    Replayer(isa::Program prog, std::vector<CoreLog> patched_logs,
             mem::BackingStore initial_memory, ReplayOptions opts = {});

    /**
     * Observe every replayed load/atomic value. Optional: the result's
     * loadHashes/loadCounts already digest them. When the replay fans
     * out, the hook is called from worker threads concurrently, but
     * calls for any one core are serialized in that core's program
     * order, so per-core accumulation needs no locking.
     */
    void
    setLoadHook(std::function<void(sim::CoreId, std::uint64_t)> hook)
    {
        loadHook_ = std::move(hook);
    }

    /**
     * Run the whole replay, in the order the file comment describes;
     * each core's timestamps must rise with its interval index. Throws
     * ReplayDivergence (see divergence.hh) when a log entry does not
     * line up with the program — e.g. a corrupted log: the earliest by
     * timestamp when workers hit several before they stop. Single use:
     * one run() per instance.
     */
    ReplayResult run();

  private:
    /** Owned copies: callers may pass temporaries. */
    const isa::Program prog_;
    std::vector<CoreLog> logs_;
    /** The image the replay runs on; run() returns it as its memory. */
    mem::BackingStore memory_;
    ReplayOptions opts_;
    std::function<void(sim::CoreId, std::uint64_t)> loadHook_;
    bool ran_ = false;
};

} // namespace rr::rnr

#endif // RR_RNR_REPLAYER_HH
