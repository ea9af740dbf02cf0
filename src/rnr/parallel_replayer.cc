#include "rnr/parallel_replayer.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
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
 * The memory view one core replays through: reads hit the core's
 * current (uncommitted) write set first, then fall through — via a
 * persistent page-pointer cache — to the shared image; writes stay
 * private until the engine commits them at the end of a segment
 * another core depends on. Addresses are unique in the write set
 * (later writes overwrite in place), so commit applies final values
 * only — sound because the dependency DAG orders any two intervals
 * that touch the same word, making intermediate values invisible to
 * other intervals by construction.
 *
 * The shared image is the engine's BackingStore, whose page pointers
 * stay valid forever. One shared_mutex guards its page table; words
 * are read and written through cached page pointers without it,
 * synchronized by the DAG's acquire/release in-degree chain, so only a
 * page this core has not yet cached ever takes the lock. Absent pages
 * are deliberately not cached on a read — a later interval of this
 * core may depend on an interval that materializes the page. One
 * CoreMemory exists per core; the per-core DAG chain serializes its
 * use.
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
        a = sim::wordAddr(a);
        if (const std::uint32_t *slot = index_.find(a))
            return writes_[*slot].second;
        const std::uint64_t *page =
            cachedPage(a / mem::BackingStore::kPageBytes, false);
        if (!page)
            return 0;
        return page[(a % mem::BackingStore::kPageBytes) /
                    sim::kWordBytes];
    }

    void
    write64(sim::Addr a, std::uint64_t v) override
    {
        a = sim::wordAddr(a);
        if (std::uint32_t *slot = index_.find(a)) {
            writes_[*slot].second = v;
            return;
        }
        index_[a] = static_cast<std::uint32_t>(writes_.size());
        writes_.push_back({a, v});
    }

    /** Publish the write set and start an empty one. */
    void
    commit()
    {
        wordsWritten_ += writes_.size();
        for (const auto &[addr, value] : writes_) {
            std::uint64_t *page =
                cachedPage(addr / mem::BackingStore::kPageBytes, true);
            page[(addr % mem::BackingStore::kPageBytes) /
                 sim::kWordBytes] = value;
        }
        // Erase key by key: the index keeps the capacity of the largest
        // write set so far, and clearing the whole table at every
        // commit would cost that capacity each time.
        for (const auto &write : writes_)
            index_.erase(write.first);
        writes_.clear();
    }

    std::uint64_t wordsWritten() const { return wordsWritten_; }

  private:
    /** The page's words, or nullptr when absent and not @p create. */
    std::uint64_t *
    cachedPage(std::uint64_t page_index, bool create)
    {
        if (const std::uint64_t *slot = cache_.find(page_index))
            return reinterpret_cast<std::uint64_t *>(
                static_cast<std::uintptr_t>(*slot));
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
    sim::FlatMap<std::uint32_t> index_;
    std::vector<std::pair<sim::Addr, std::uint64_t>> writes_;
    sim::FlatMap<std::uint64_t> cache_; ///< page index → words pointer
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
    std::uint64_t intervals = 0;
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
    const std::size_t cores = logs_.size();
    std::vector<CoreState> state;
    state.reserve(cores);
    for (std::size_t c = 0; c < cores; ++c) {
        isa::ExecContext &ctx =
            state.emplace_back(initialMemory_, page_table).ctx;
        ctx.pc = prog_.entryFor(static_cast<std::uint32_t>(c));
        ctx.writeReg(isa::kRegThreadId, c);
        ctx.writeReg(isa::kRegNumThreads, cores);
    }
    const IntervalInterpreter interp(prog_, logs_, opts_.costModel);
    // A core's segments run one at a time, so no more than `cores`
    // segments are ever ready at once: further workers would only spin.
    sim::TaskPool pool(std::min<std::uint32_t>(
        sim::resolveJobs(opts_.workers),
        static_cast<std::uint32_t>(std::max<std::size_t>(cores, 1))));

    // First divergence by interval timestamp (the recorded total
    // order), so concurrent failures report deterministically.
    std::mutex divergence_mu;
    std::optional<DivergenceReport> divergence;

    // Stop-the-world: a divergence or a fired opts_.abortCheck
    // cancels pending tasks, and every running segment stops at its
    // next interval boundary.
    std::atomic<bool> halted{false}, aborted{false};
    const auto halt = [&] {
        halted.store(true, std::memory_order_relaxed);
        pool.cancelPending();
    };

    // Wall-clock duration of each segment's replay, written once by
    // whichever worker ran it (the drain barrier publishes them).
    // Feeds the measured schedule below.
    std::vector<double> durations(segments, 0.0);

    // A task replays a segment, commits the write set if another core
    // depends on it, and releases its successors. The core's next
    // segment continues inline when this release made it ready — its
    // ExecContext, write set and page cache are hot on this worker —
    // and every other ready successor goes to the pool, affinity-
    // hinted with its core so a core's chain tends to stay on one
    // worker.
    constexpr std::uint32_t kNone = ~0U;
    std::function<void(std::uint32_t)> run_segment =
        [&](std::uint32_t s) {
            while (s != kNone) {
                const ReplaySegment &seg = dag.segments[s];
                CoreState &core = state[seg.core];
                const auto t0 = std::chrono::steady_clock::now();
                for (std::uint32_t i = seg.first;
                     i != seg.first + seg.count; ++i) {
                    if (halted.load(std::memory_order_relaxed))
                        return;
                    if (opts_.abortCheck && opts_.abortCheck()) {
                        aborted.store(true, std::memory_order_relaxed);
                        halt();
                        return;
                    }
                    try {
                        // The replay position is only needed by a
                        // divergence report; it is filled in there.
                        interp.replayInterval(seg.core, i, 0, core.ctx,
                                              core.mem, loadHook_,
                                              core.ring, core.acc);
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
                core.intervals += seg.count;
                // Publish before releasing any successor on another
                // core: the word stores are sequenced before the
                // acq_rel in-degree release below, so a dependent
                // segment always observes the committed values. A
                // segment whose only successor is its core's next one
                // keeps its writes private; the next segment reads
                // through them on whichever worker it runs, under the
                // happens-before the release sequence provides.
                if (seg.commit)
                    core.mem.commit();
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
    for (CoreState &core : state) {
        res.instructions += core.acc.instructions;
        res.cost.userCycles += core.acc.cost.userCycles;
        res.cost.osCycles += core.acc.cost.osCycles;
        res.intervals += core.intervals;
        res.loadHashes.push_back(core.acc.loadHash);
        res.loadCounts.push_back(core.acc.loads);
        res.contexts.push_back(core.ctx);
    }
    RR_ASSERT(res.intervals == dag.intervals,
              "parallel replay stalled: %llu of %llu intervals ran "
              "(dependency cycle?)",
              static_cast<unsigned long long>(res.intervals),
              static_cast<unsigned long long>(dag.intervals));

    // ---- Measured schedule. -----------------------------------------
    // Replay each segment's *measured* duration through a greedy list
    // schedule on the same DAG with this run's worker count: ready
    // segments (all predecessors finished) go to the earliest-free
    // worker, earliest-ready first. The resulting span is the
    // wall-clock the DAG supports on N hardware threads, independent
    // of how many this host actually has — the honest "measured
    // speedup" companion to the cost-model bound from
    // buildParallelSchedule().
    double measured_serial = 0.0, measured_span = 0.0;
    {
        for (const double d : durations)
            measured_serial += d;
        std::vector<std::uint32_t> preds_left(dag.indegree);
        std::vector<double> ready_at(segments, 0.0);
        using Ready = std::pair<double, std::uint32_t>;
        std::priority_queue<Ready, std::vector<Ready>, std::greater<>>
            ready;
        for (std::uint32_t s = 0; s < segments; ++s)
            if (preds_left[s] == 0)
                ready.push({0.0, s});
        std::priority_queue<double, std::vector<double>, std::greater<>>
            worker_free;
        for (std::uint32_t w = 0; w < pool.workers(); ++w)
            worker_free.push(0.0);
        while (!ready.empty()) {
            const auto [at, s] = ready.top();
            ready.pop();
            const double free = worker_free.top();
            worker_free.pop();
            const double finish = std::max(at, free) + durations[s];
            worker_free.push(finish);
            measured_span = std::max(measured_span, finish);
            for (std::uint32_t k = dag.succBegin[s];
                 k != dag.succBegin[s + 1]; ++k) {
                const std::uint32_t succ = dag.succ[k];
                ready_at[succ] = std::max(ready_at[succ], finish);
                if (--preds_left[succ] == 0)
                    ready.push({ready_at[succ], succ});
            }
        }
    }

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
