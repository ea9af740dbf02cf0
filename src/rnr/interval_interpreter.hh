/**
 * @file
 * How rnr::Replayer replays one interval, whichever order it runs
 * intervals in.
 *
 * An interval replays the same way on the recorded-order walk and on
 * the dependency DAG: execute InorderBlocks natively through the
 * functional interpreter, inject values for ReorderedLoads/
 * DummyAtomics, skip Dummy entries, and apply PatchedStores through
 * the memory interface at their position in the entry stream. The
 * engine passes its image (mem::BackingStore) as that memory; the
 * integration suite's conflict checker passes a fake that watches
 * every access. In what order intervals run stays with the caller.
 * How a core starts and how its totals enter a ReplayResult live here.
 */

#ifndef RR_RNR_INTERVAL_INTERPRETER_HH
#define RR_RNR_INTERVAL_INTERPRETER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "isa/program.hh"
#include "rnr/divergence.hh"
#include "rnr/log.hh"
#include "rnr/replay_cost.hh"
#include "sim/types.hh"

namespace rr::rnr
{

struct ReplayResult;

class IntervalInterpreter
{
  public:
    /** Replay steps kept per core for divergence reports. */
    static constexpr std::size_t kRingDepth = 8;
    /**
     * The abort check is polled before every interval and at least
     * once every this many instructions inside one, so a block that
     * claims far more instructions than the program will run before it
     * ends (a spin the rest of the log never releases) stays
     * cancellable.
     */
    static constexpr std::uint64_t kAbortPollInstructions = 1 << 16;

    using LoadHook = std::function<void(sim::CoreId, std::uint64_t)>;
    using AbortCheck = std::function<bool()>;

    /**
     * Both references must outlive the interpreter; @p logs must be
     * patched (see patcher.hh), or replayInterval() throws
     * ReplayDivergence at the first unpatched entry. @p hook, when
     * set, observes every replayed load/atomic value; @p abort, when
     * set, is polled as kAbortPollInstructions says, and
     * replayInterval() throws ReplayAborted once it returns true.
     */
    IntervalInterpreter(const isa::Program &prog,
                        const std::vector<CoreLog> &logs,
                        LoadHook hook = {}, AbortCheck abort = {})
        : prog_(prog), logs_(logs), hook_(std::move(hook)),
          abort_(std::move(abort))
    {
    }

    /**
     * What replayInterval() calls accrue for one core. The engine
     * keeps one per core, because the load digest is a per-core chain.
     */
    struct Accum
    {
        ReplayCost cost;
        std::uint64_t instructions = 0;
        std::uint64_t intervals = 0;
        /** mixLoadValue chain over the replayed load/atomic values. */
        std::uint64_t loadHash = 0;
        /** Load/atomic values in loadHash. */
        std::uint64_t loads = 0;

        /**
         * Add this core's totals to @p res; call once per core, in
         * core order.
         */
        void addTo(ReplayResult &res) const;
    };

    /** Core @p core's context before its first interval. */
    isa::ExecContext startContext(sim::CoreId core) const;

    /**
     * Replay one interval of @p core against @p ctx and @p mem. All
     * value state flows through @p mem: in-order execution reads and
     * writes it, and PatchedStore entries write through it too. Each
     * InorderBlock runs through isa::run() in one call per
     * kAbortPollInstructions. Every replayed load/atomic value is
     * mixed into @p acc's load digest and reported to the hook, each
     * step is appended to @p ring (bounded to kRingDepth), and each
     * entry's entryReplayCost() and the interval's ordering hand-off
     * accumulate into @p acc. @p acc must be @p core's.
     *
     * Throws ReplayDivergence when an entry does not line up with the
     * program, and when a store, in-block or patched, lands outside
     * the image: mem::StoreOutsideImage never escapes, so it cannot
     * leave a worker. The report carries everything except
     * orderPosition and recentSteps, which the engine fills in: only
     * it knows the interval's place in the recorded order and owns the
     * rings.
     * Throws ReplayAborted when the abort check fires; the interval is
     * then left part-replayed.
     */
    void replayInterval(sim::CoreId core, std::uint32_t interval_index,
                        isa::ExecContext &ctx, isa::MemoryIf &mem,
                        std::deque<ReplayStep> &ring, Accum &acc) const;

  private:
    [[noreturn]] void diverge(sim::CoreId core,
                              std::uint32_t interval_index,
                              std::uint32_t entry_index, std::uint64_t pc,
                              const LogEntry &entry, std::string expected,
                              std::string actual) const;

    /** Throw ReplayAborted if the abort check fires. */
    void pollAbort() const;

    const isa::Program &prog_;
    const std::vector<CoreLog> &logs_;
    const LoadHook hook_;
    const AbortCheck abort_;
};

} // namespace rr::rnr

#endif // RR_RNR_INTERVAL_INTERPRETER_HH
