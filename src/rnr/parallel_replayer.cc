#include "rnr/parallel_replayer.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <utility>

#include "rnr/interval_interpreter.hh"
#include "rnr/parallel_schedule.hh"
#include "rnr/patcher.hh"
#include "sim/flat_map.hh"
#include "sim/jobs.hh"
#include "sim/logging.hh"
#include "sim/task_pool.hh"

namespace rr::rnr
{

namespace
{

/**
 * The memory view one core replays through: reads and writes go
 * straight to the shared image through a persistent page-pointer
 * cache. That is sound because the dependency DAG orders every pair of
 * accesses to one word by intervals of different cores where at least
 * one is a store, and the engine's acquire/release in-degree chain
 * turns that order into happens-before; the integration suite's
 * conflict check (tests/integration/replay_check.hh) tests the
 * property on every recording it replays with edges.
 *
 * The shared image is the engine's BackingStore, whose page pointers
 * stay valid forever. One shared_mutex guards its page table, so only
 * a page this core has not yet cached ever takes the lock; a write to
 * an absent page creates it under the exclusive lock. Absent pages are
 * deliberately not cached on a read — a later interval of this core
 * may depend on an interval that materializes the page. One CoreMemory
 * exists per core; the per-core DAG chain serializes its use.
 */
class CoreMemory : public isa::MemoryIf
{
  public:
    CoreMemory(mem::BackingStore &image, std::shared_mutex &page_table)
        : image_(image), pageTable_(page_table)
    {
    }

    std::uint64_t
    read64(sim::Addr a) override
    {
        const std::uint64_t *page =
            cachedPage(a / mem::BackingStore::kPageBytes, false);
        if (!page)
            return 0;
        return page[wordIndex(a)];
    }

    void
    write64(sim::Addr a, std::uint64_t v) override
    {
        const std::uint64_t page_index = a / mem::BackingStore::kPageBytes;
        cachedPage(page_index, true)[wordIndex(a)] = v;
        ++wordsWritten_;
    }

    std::uint64_t wordsWritten() const { return wordsWritten_; }

  private:
    static std::uint64_t
    wordIndex(sim::Addr a)
    {
        return (a % mem::BackingStore::kPageBytes) / sim::kWordBytes;
    }

    /** The page's words, or nullptr when absent and not @p create. */
    std::uint64_t *
    cachedPage(std::uint64_t page_index, bool create)
    {
        if (page_index == lastIndex_)
            return lastPage_;
        if (const std::uint64_t *slot = cache_.find(page_index)) {
            lastIndex_ = page_index;
            lastPage_ = reinterpret_cast<std::uint64_t *>(
                static_cast<std::uintptr_t>(*slot));
            return lastPage_;
        }
        std::uint64_t *page;
        {
            std::shared_lock lock(pageTable_);
            page = image_.findPage(page_index);
        }
        if (!page && create) {
            std::unique_lock lock(pageTable_);
            page = image_.createPage(page_index);
        }
        if (page)
            cache_[page_index] = static_cast<std::uint64_t>(
                reinterpret_cast<std::uintptr_t>(page));
        return page;
    }

    mem::BackingStore &image_;
    std::shared_mutex &pageTable_;
    sim::FlatMap<std::uint64_t> cache_; ///< page index → words pointer
    /** The page cachedPage() found last (never an absent one). */
    std::uint64_t lastIndex_ = ~std::uint64_t{0};
    std::uint64_t *lastPage_ = nullptr;
    /** Every word this core's segments stored. */
    std::uint64_t wordsWritten_ = 0;
};

/**
 * Everything one core's replay writes, on cache lines of its own: the
 * core's segments run one at a time (its chain serializes them), so
 * nothing here needs a lock, and the alignment keeps one worker's
 * per-load digest updates off the lines another worker is using.
 */
struct alignas(64) CoreState
{
    CoreState(mem::BackingStore &image, std::shared_mutex &page_table)
        : mem(image, page_table)
    {
    }

    isa::ExecContext ctx;
    CoreMemory mem;
    std::deque<ReplayStep> ring;
    IntervalInterpreter::Accum acc;
};

/** Rank of @p timestamp in the recorded total order of @p logs. */
std::uint64_t
timestampRank(const std::vector<CoreLog> &logs, std::uint64_t timestamp)
{
    std::uint64_t rank = 0;
    for (const CoreLog &log : logs)
        for (const IntervalRecord &iv : log.intervals)
            rank += iv.timestamp < timestamp;
    return rank;
}

} // namespace

ParallelReplayer::ParallelReplayer(isa::Program prog,
                                   std::vector<CoreLog> patched_logs,
                                   mem::BackingStore initial_memory,
                                   ParallelReplayOptions opts)
    : prog_(std::move(prog)), logs_(std::move(patched_logs)),
      initialMemory_(std::move(initial_memory)), opts_(opts)
{
    for (const auto &log : logs_)
        RR_ASSERT(isPatched(log),
                  "parallel replayer requires a patched log");
}

ReplayResult
ParallelReplayer::run()
{
    RR_ASSERT(!ran_, "ParallelReplayer::run() is single-use");
    ran_ = true;

    const SegmentDag dag = buildSegmentDag(logs_);
    const auto segments = static_cast<std::uint32_t>(dag.segments.size());
    const auto indegree =
        std::make_unique<std::atomic<std::uint32_t>[]>(segments);
    for (std::uint32_t s = 0; s < segments; ++s)
        indegree[s].store(dag.indegree[s], std::memory_order_relaxed);

    // The replay runs on the initial image itself (run() is single
    // use) and returns it as the result's memory.
    std::shared_mutex page_table;
    // Stop-the-world: a divergence or a fired opts_.abortCheck sets
    // `halted` and cancels pending tasks. The interpreter polls
    // `halted` with the abort check, so every running segment stops at
    // its next poll: before its next interval, or within
    // kAbortPollInstructions inside one.
    std::atomic<bool> halted{false}, aborted{false};
    const IntervalInterpreter interp(prog_, logs_, loadHook_, [&] {
        return halted.load(std::memory_order_relaxed) ||
               (opts_.abortCheck && opts_.abortCheck());
    });
    const std::size_t cores = logs_.size();
    std::vector<CoreState> state;
    state.reserve(cores);
    for (std::size_t c = 0; c < cores; ++c)
        state.emplace_back(initialMemory_, page_table).ctx =
            interp.startContext(static_cast<sim::CoreId>(c));
    // A core's segments run one at a time, so no more than `cores`
    // segments are ever ready at once: further workers would only spin.
    sim::TaskPool pool(std::min<std::uint32_t>(
        sim::resolveJobs(opts_.workers),
        static_cast<std::uint32_t>(std::max<std::size_t>(cores, 1))));

    // First divergence by interval timestamp (the recorded total
    // order), so concurrent failures report deterministically.
    std::mutex divergence_mu;
    std::optional<DivergenceReport> divergence;

    const auto halt = [&] {
        halted.store(true, std::memory_order_relaxed);
        pool.cancelPending();
    };

    // Wall-clock duration of each segment's replay, written once by
    // whichever worker ran it (the drain barrier publishes them).
    // Feeds the measured schedule below.
    std::vector<double> durations(segments, 0.0);

    // A task replays a segment and releases its successors. The core's
    // next segment continues inline when this release made it ready —
    // its ExecContext and page cache are hot on this worker — and every
    // other ready successor goes to the pool, affinity-hinted with its
    // core so a core's chain tends to stay on one worker.
    constexpr std::uint32_t kNone = ~0U;
    std::function<void(std::uint32_t)> run_segment =
        [&](std::uint32_t s) {
            while (s != kNone) {
                const ReplaySegment &seg = dag.segments[s];
                CoreState &core = state[seg.core];
                const auto t0 = std::chrono::steady_clock::now();
                for (std::uint32_t i = seg.first;
                     i != seg.first + seg.count; ++i) {
                    try {
                        interp.replayInterval(seg.core, i, core.ctx,
                                              core.mem, core.ring,
                                              core.acc);
                    } catch (const ReplayAborted &) {
                        // The abort check fired, or a halt elsewhere
                        // stopped this segment; a divergence report,
                        // when there is one, wins below.
                        aborted.store(true, std::memory_order_relaxed);
                        halt();
                        return;
                    } catch (ReplayDivergence &d) {
                        std::lock_guard lock(divergence_mu);
                        const DivergenceReport &r = d.report();
                        if (!divergence ||
                            r.timestamp < divergence->timestamp)
                            divergence = r;
                        halt();
                        return;
                    }
                }
                // The segment's word stores are sequenced before the
                // acq_rel in-degree release below, so a dependent
                // segment, on whichever worker it runs, observes them.
                durations[s] = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();

                std::uint32_t next = kNone;
                for (std::uint32_t k = dag.succBegin[s];
                     k != dag.succBegin[s + 1]; ++k) {
                    const std::uint32_t succ = dag.succ[k];
                    if (indegree[succ].fetch_sub(
                            1, std::memory_order_acq_rel) != 1)
                        continue;
                    const sim::CoreId succ_core = dag.segments[succ].core;
                    if (next == kNone && succ_core == seg.core)
                        next = succ;
                    else
                        pool.submit(
                            [&run_segment, succ] { run_segment(succ); },
                            succ_core);
                }
                s = next;
            }
        };

    for (std::uint32_t s = 0; s < segments; ++s) {
        if (dag.indegree[s] == 0)
            pool.submit([&run_segment, s] { run_segment(s); },
                        dag.segments[s].core);
    }
    const sim::TaskPool::DrainStats drained = pool.drain();

    if (divergence) {
        // The sequential engine's replay position of the interval.
        divergence->orderPosition =
            timestampRank(logs_, divergence->timestamp);
        // Rings are chronological per core; concatenate in core order.
        // Non-failing cores may have replayed past the divergence
        // point before the pool quiesced — their rings show where they
        // stopped, which is the useful context for debugging anyway.
        for (const CoreState &core : state)
            for (const ReplayStep &step : core.ring)
                divergence->recentSteps.push_back(step);
        throw ReplayDivergence(std::move(*divergence));
    }
    if (aborted.load())
        throw ReplayAborted();

    ReplayResult res;
    for (const CoreState &core : state) {
        core.acc.addTo(res);
        res.contexts.push_back(core.ctx);
    }
    RR_ASSERT(res.intervals == dag.intervals,
              "parallel replay stalled: %llu of %llu intervals ran "
              "(dependency cycle?)",
              static_cast<unsigned long long>(res.intervals),
              static_cast<unsigned long long>(dag.intervals));

    // The measured schedule: each segment's measured duration through
    // listSchedule() with this run's worker count. Its span is the
    // wall-clock the DAG supports on that many hardware threads,
    // independent of how many this host actually has — the honest
    // "measured speedup" companion to the modelled bound from
    // buildParallelSchedule().
    double measured_serial = 0.0;
    for (const double d : durations)
        measured_serial += d;
    const double measured_span =
        listSchedule(dag, durations, pool.workers());

    // ---- Assemble the result. ---------------------------------------
    res.memory = std::move(initialMemory_);
    res.wallSeconds = drained.wallSeconds;
    res.workers = pool.workers();
    res.measuredSerialSeconds = measured_serial;
    res.measuredSpanSeconds = measured_span;

    std::uint64_t words_committed = 0;
    for (const CoreState &core : state)
        words_committed += core.mem.wordsWritten();
    auto &stats = res.engineStats;
    stats.counter("intervals_replayed") += res.intervals;
    stats.counter("segments") += segments;
    stats.counter("words_committed") += words_committed;
    stats.counter("tasks_run") += drained.tasksRun;
    double busy_total = 0.0;
    for (std::uint32_t w = 0; w < pool.workers(); ++w) {
        stats.scalar("worker_busy_seconds")
            .sample(drained.workerBusySeconds[w]);
        stats.scalar("worker_tasks").sample(
            static_cast<double>(drained.workerTasks[w]));
        busy_total += drained.workerBusySeconds[w];
    }
    if (drained.wallSeconds > 0.0)
        stats.scalar("utilization")
            .sample(busy_total /
                    (drained.wallSeconds * pool.workers()));
    stats.scalar("measured_serial_seconds").sample(measured_serial);
    stats.scalar("measured_span_seconds").sample(measured_span);
    if (measured_span > 0.0)
        stats.scalar("measured_speedup")
            .sample(measured_serial / measured_span);
    return res;
}

} // namespace rr::rnr
