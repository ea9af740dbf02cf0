/**
 * @file
 * Multi-threaded replay of dependency-recorded RelaxReplay logs
 * (paper Section 3.6).
 *
 * The sequential Replayer enforces the recorded *total* order of
 * intervals; with dependency recording enabled the logs also carry the
 * *partial* order (cross-core predecessor edges plus implicit per-core
 * program order), and replaying in any topological order of that DAG
 * reproduces the execution. The ParallelReplayer exploits exactly
 * that, at the granularity of segments (buildSegmentDag in
 * parallel_schedule.hh): maximal runs of one core's intervals between
 * cross-core edges. Every segment becomes a sim::TaskPool task gated
 * on its predecessors by an atomic in-degree counter; it replays its
 * intervals straight against the shared memory image.
 *
 * Determinism: the DAG orders every pair of same-word accesses by
 * intervals of different cores where at least one is a store, per-core
 * state (ExecContext, divergence ring, load digest) is serialized by
 * the core's segment chain, and a segment's stores precede the release
 * of its successors' in-degrees (acquire/release), so the final
 * memory, contexts, load-value digests and modelled cost are
 * bit-identical to the sequential replayer at any worker count. The
 * integration suite's replay check (tests/integration/replay_check.hh)
 * enforces this at 1, 2, 4 and 8 workers, and checks the ordering
 * property itself, for every scenario recorded with edges.
 */

#ifndef RR_RNR_PARALLEL_REPLAYER_HH
#define RR_RNR_PARALLEL_REPLAYER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "isa/program.hh"
#include "mem/backing_store.hh"
#include "rnr/divergence.hh"
#include "rnr/log.hh"
#include "rnr/replayer.hh"
#include "sim/types.hh"

namespace rr::rnr
{

struct ParallelReplayOptions
{
    /**
     * Worker threads; 0 = all hardware threads. run() starts at most
     * one per recorded core.
     */
    std::uint32_t workers = 0;
    /**
     * Cooperative abort: polled by every worker before every interval
     * and at least once every
     * IntervalInterpreter::kAbortPollInstructions instructions inside
     * one. When it returns true the engine cancels all pending work,
     * every running segment stops at its next poll, and run() throws
     * ReplayAborted. Used by the replay service for job cancellation
     * and timeouts; replay state is abandoned, so partial progress is
     * not visible.
     */
    std::function<bool()> abortCheck;
};

class ParallelReplayer
{
  public:
    /**
     * @param prog The recorded program.
     * @param patched_logs One patched CoreLog per core (see
     *        patcher.hh), recorded with dependencies
     *        (RecorderConfig::recordDependencies) — without them the
     *        DAG degenerates to per-core chains and replay is unsound.
     * @param initial_memory The memory image recording started from.
     */
    ParallelReplayer(isa::Program prog,
                     std::vector<CoreLog> patched_logs,
                     mem::BackingStore initial_memory,
                     ParallelReplayOptions opts = {});

    /**
     * Observe every replayed load/atomic value. Optional: the result's
     * loadHashes/loadCounts already digest them. The hook is called
     * from worker threads concurrently, but calls for any one core are
     * serialized in that core's program order (the per-core DAG
     * chain), so per-core accumulation needs no locking.
     */
    void
    setLoadHook(std::function<void(sim::CoreId, std::uint64_t)> hook)
    {
        loadHook_ = std::move(hook);
    }

    /**
     * Replay the whole DAG. Returns the same result as
     * Replayer::run() — identical memory/contexts/cost/instructions/
     * load digests — plus measured wallSeconds/workers and per-worker
     * utilization in engineStats. Throws ReplayDivergence like the
     * sequential engine (the earliest-timestamp divergence when
     * several workers hit one before the pool quiesces). Single use:
     * one run() per instance.
     */
    ReplayResult run();

  private:
    /** Owned copies: callers may pass temporaries. */
    const isa::Program prog_;
    std::vector<CoreLog> logs_;
    /** The image the replay runs on; run() returns it as its memory. */
    mem::BackingStore initialMemory_;
    ParallelReplayOptions opts_;
    std::function<void(sim::CoreId, std::uint64_t)> loadHook_;
    bool ran_ = false;
};

} // namespace rr::rnr

#endif // RR_RNR_PARALLEL_REPLAYER_HH
