#include "rnr/replayer.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>
#include <utility>

#include "rnr/interval_interpreter.hh"
#include "rnr/parallel_schedule.hh"
#include "sim/jobs.hh"
#include "sim/logging.hh"
#include "sim/task_pool.hh"

namespace rr::rnr
{

namespace
{

/**
 * Everything one core's replay writes besides memory, on cache lines
 * of its own: the core's intervals run one at a time (its chain
 * serializes them), so nothing here needs a lock, and the alignment
 * keeps one worker's per-load digest updates off the lines another
 * worker is using.
 */
struct alignas(64) CoreState
{
    isa::ExecContext ctx;
    std::deque<ReplayStep> ring;
    IntervalInterpreter::Accum acc;
};

/**
 * Why a replay stopped early: the first divergence by interval
 * timestamp (the recorded total order, so concurrent failures report
 * deterministically), or a fired abort check. `halted` tells the
 * other workers of a fanned-out replay to stop at their next poll.
 */
struct Stop
{
    std::atomic<bool> halted{false};
    std::atomic<bool> aborted{false};
    std::mutex mu;
    std::optional<DivergenceReport> divergence;
};

/**
 * Replay interval @p index of @p core on @p image, the one step both
 * orders take. On a divergence or a fired abort check, note it in
 * @p stop, halt the replay and return false; a divergence report, when
 * there is one, wins over an abort.
 */
bool
replayOne(const IntervalInterpreter &interp, mem::BackingStore &image,
          sim::CoreId core, std::uint32_t index, CoreState &state,
          Stop &stop)
{
    try {
        interp.replayInterval(core, index, state.ctx, image, state.ring,
                              state.acc);
        return true;
    } catch (const ReplayAborted &) {
        stop.aborted = true;
    } catch (const ReplayDivergence &d) {
        const DivergenceReport &r = d.report();
        std::lock_guard lock(stop.mu);
        if (!stop.divergence || r.timestamp < stop.divergence->timestamp)
            stop.divergence = r;
    }
    stop.halted.store(true, std::memory_order_relaxed);
    return false;
}

/** Whether some interval of @p logs waits for another core's. */
bool
hasCrossCoreEdge(const std::vector<CoreLog> &logs)
{
    for (std::size_t c = 0; c < logs.size(); ++c)
        for (const IntervalRecord &iv : logs[c].intervals)
            for (const IntervalDep &d : iv.predecessors)
                if (d.core != c)
                    return true;
    return false;
}

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

/**
 * Replay every interval on the calling thread in the recorded total
 * order: intervals sorted by their (globally unique) termination
 * timestamps. @return the wall-clock seconds the walk took.
 */
double
replayInOrder(const std::vector<CoreLog> &logs,
              const IntervalInterpreter &interp, mem::BackingStore &image,
              std::vector<CoreState> &state, Stop &stop)
{
    // (timestamp, core, index) of every interval.
    std::vector<std::tuple<std::uint64_t, sim::CoreId, std::uint32_t>> order;
    for (sim::CoreId c = 0; c < logs.size(); ++c)
        for (std::uint32_t i = 0; i < logs[c].intervals.size(); ++i)
            order.emplace_back(logs[c].intervals[i].timestamp, c, i);
    std::sort(order.begin(), order.end());

    std::vector<std::uint32_t> next(logs.size(), 0);
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto &[timestamp, core, index] : order) {
        RR_ASSERT(index == next[core],
                  "order violates core %u's interval sequence", core);
        ++next[core];
        if (!replayOne(interp, image, core, index, state[core], stop))
            break;
    }
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Replay @p dag's segments as tasks on @p pool. @p durations receives
 * each segment's measured wall-clock. Every worker loads and stores
 * straight into @p image: the DAG orders every pair of same-word
 * accesses by different cores where one is a store, and the acq_rel
 * in-degree chain below turns that order into happens-before; the
 * integration suite's conflict check (tests/integration/
 * replay_check.hh) tests the property on every recording it replays
 * with edges.
 */
sim::TaskPool::DrainStats
replayDag(const SegmentDag &dag, const IntervalInterpreter &interp,
          mem::BackingStore &image, std::vector<CoreState> &state,
          sim::TaskPool &pool, Stop &stop, std::vector<double> &durations)
{
    const auto segments = static_cast<std::uint32_t>(dag.segments.size());
    const auto indegree =
        std::make_unique<std::atomic<std::uint32_t>[]>(segments);
    for (std::uint32_t s = 0; s < segments; ++s)
        indegree[s].store(dag.indegree[s], std::memory_order_relaxed);

    // A task replays a segment and releases its successors. The core's
    // next segment continues inline when this release made it ready —
    // its ExecContext is hot on this worker — and every other ready
    // successor goes to the pool, affinity-hinted with its core so a
    // core's chain tends to stay on one worker. Each segment's
    // duration is written once, by whichever worker ran it (the drain
    // barrier publishes them).
    constexpr std::uint32_t kNone = ~0U;
    std::function<void(std::uint32_t)> run_segment =
        [&](std::uint32_t s) {
            while (s != kNone) {
                const ReplaySegment &seg = dag.segments[s];
                CoreState &core = state[seg.core];
                const auto t0 = std::chrono::steady_clock::now();
                for (std::uint32_t i = seg.first;
                     i != seg.first + seg.count; ++i) {
                    // Stop-the-world: replayOne() sets `stop.halted`,
                    // which the interpreter polls with the abort check,
                    // so every running segment stops at its next poll,
                    // and pending tasks are dropped.
                    if (!replayOne(interp, image, seg.core, i, core,
                                   stop)) {
                        pool.cancelPending();
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
    return pool.drain();
}

/**
 * Add a fanned-out replay's scheduling statistics to @p res. Its
 * measured schedule, the segments' measured durations through
 * listSchedule() on res.workers lanes, spans the wall-clock the DAG
 * supports on that many hardware threads, however many this host has.
 * CPU concurrency, the workers' CPU time over the drain's wall clock,
 * is how many CPUs the replay actually got.
 */
void
addScheduleStats(ReplayResult &res, const SegmentDag &dag,
                 const std::vector<double> &durations,
                 const sim::TaskPool::DrainStats &drained)
{
    double measured_serial = 0.0;
    for (const double d : durations)
        measured_serial += d;
    const double measured_span = listSchedule(dag, durations, res.workers);
    res.measuredSerialSeconds = measured_serial;
    res.measuredSpanSeconds = measured_span;

    auto &stats = res.engineStats;
    stats.counter("intervals_replayed") += res.intervals;
    stats.counter("segments") += dag.segments.size();
    stats.counter("tasks_run") += drained.tasksRun;
    double busy_total = 0.0, cpu_total = 0.0;
    for (std::uint32_t w = 0; w < res.workers; ++w) {
        stats.scalar("worker_busy_seconds")
            .sample(drained.workerBusySeconds[w]);
        stats.scalar("worker_cpu_seconds")
            .sample(drained.workerCpuSeconds[w]);
        stats.scalar("worker_tasks").sample(
            static_cast<double>(drained.workerTasks[w]));
        busy_total += drained.workerBusySeconds[w];
        cpu_total += drained.workerCpuSeconds[w];
    }
    if (drained.wallSeconds > 0.0) {
        stats.scalar("utilization")
            .sample(busy_total / (drained.wallSeconds * res.workers));
        stats.scalar("cpu_concurrency")
            .sample(cpu_total / drained.wallSeconds);
    }
    stats.scalar("measured_serial_seconds").sample(measured_serial);
    stats.scalar("measured_span_seconds").sample(measured_span);
    if (measured_span > 0.0)
        stats.scalar("measured_speedup")
            .sample(measured_serial / measured_span);
}

} // namespace

Replayer::Replayer(isa::Program prog, std::vector<CoreLog> patched_logs,
                   mem::BackingStore initial_memory, ReplayOptions opts)
    : prog_(std::move(prog)), logs_(std::move(patched_logs)),
      memory_(std::move(initial_memory)), opts_(std::move(opts))
{
}

ReplayResult
Replayer::run()
{
    RR_ASSERT(!ran_, "Replayer::run() is single-use");
    ran_ = true;

    // The one rule: fan out only over more than one worker, and only
    // when the DAG orders the cores' shared accesses at all.
    const auto cores = static_cast<std::uint32_t>(logs_.size());
    const std::uint32_t workers =
        std::min(sim::resolveJobs(opts_.workers), cores);
    const bool fan_out = workers > 1 && hasCrossCoreEdge(logs_);

    Stop stop;
    IntervalInterpreter::AbortCheck abort = opts_.abortCheck;
    if (fan_out)
        abort = [&stop, &check = opts_.abortCheck] {
            return stop.halted.load(std::memory_order_relaxed) ||
                   (check && check());
        };
    const IntervalInterpreter interp(prog_, logs_, loadHook_,
                                     std::move(abort));
    // The replay runs on the initial image itself (run() is single
    // use) and returns it as the result's memory.
    std::vector<CoreState> state(cores);
    for (sim::CoreId c = 0; c < cores; ++c)
        state[c].ctx = interp.startContext(c);

    ReplayResult res;
    SegmentDag dag;
    std::vector<double> durations;
    sim::TaskPool::DrainStats drained;
    if (fan_out) {
        dag = buildSegmentDag(logs_);
        durations.assign(dag.segments.size(), 0.0);
        sim::TaskPool pool(workers);
        drained =
            replayDag(dag, interp, memory_, state, pool, stop, durations);
        res.wallSeconds = drained.wallSeconds;
        res.workers = workers;
    } else {
        res.wallSeconds = replayInOrder(logs_, interp, memory_, state, stop);
    }

    if (stop.divergence) {
        DivergenceReport &report = *stop.divergence;
        // The interval's position in the recorded total order.
        report.orderPosition = timestampRank(logs_, report.timestamp);
        // Rings are chronological per core; concatenate in core order.
        // When the replay fanned out, other cores may have replayed
        // past the divergence point before the pool quiesced — their
        // rings show where they stopped, which is the useful context
        // for debugging anyway.
        for (const CoreState &core : state)
            for (const ReplayStep &step : core.ring)
                report.recentSteps.push_back(step);
        throw ReplayDivergence(std::move(report));
    }
    if (stop.aborted)
        throw ReplayAborted();

    for (const CoreState &core : state) {
        core.acc.addTo(res);
        res.contexts.push_back(core.ctx);
    }
    res.memory = std::move(memory_);
    if (fan_out) {
        RR_ASSERT(res.intervals == dag.intervals,
                  "parallel replay stalled: %llu of %llu intervals ran "
                  "(dependency cycle?)",
                  static_cast<unsigned long long>(res.intervals),
                  static_cast<unsigned long long>(dag.intervals));
        addScheduleStats(res, dag, durations, drained);
    }
    return res;
}

} // namespace rr::rnr
