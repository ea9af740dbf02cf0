/**
 * @file
 * Extension bench (paper Section 3.6): parallel replay. Recording with
 * explicit dependency edges (Cyrus/Karma-style ordering) lets the
 * replayer run intervals of different cores concurrently; the paper
 * notes that pairing RelaxReplay with such an ordering "will admit
 * parallel replay of intervals" and expects "substantially faster
 * replay". This bench quantifies it two ways, per application and under
 * small (1K) and large (4K) interval caps — smaller intervals expose
 * more parallelism (the Karma/Cyrus design point), at the log-size cost
 * Figure 11 showed:
 *
 *  - modelled: sequential replay cycles vs the dependency-DAG makespan
 *    under the replay cost model (buildParallelSchedule);
 *  - measured: the multi-threaded engine (rnr::ParallelReplayer)
 *    actually replays the 1K log with 8 workers, times every segment,
 *    and reports serial-work / schedule-span from those measured
 *    durations. The span is the wall-clock the DAG supports on 8
 *    hardware threads, so the ratio is host-CPU-count independent
 *    (raw wall-clock equals it only when the host really has >= 8
 *    free cores). Each run is also verified bit-identical to the
 *    sequential replayer.
 */

#include "bench/common.hh"

#include <algorithm>

#include "rnr/parallel_replayer.hh"
#include "rnr/parallel_schedule.hh"
#include "rnr/patcher.hh"
#include "rnr/replayer.hh"
#include "sim/logging.hh"
#include "sim/task_pool.hh"

namespace
{

std::vector<rr::rnr::CoreLog>
patchedLogs(const rrbench::Recorded &r, int policy)
{
    std::vector<rr::rnr::CoreLog> patched;
    for (const auto &log : r.result.logs.at(policy))
        patched.push_back(rr::rnr::patch(log));
    return patched;
}

rr::rnr::ParallelSchedule
scheduleFor(const rrbench::Recorded &r, int policy)
{
    return rr::rnr::buildParallelSchedule(patchedLogs(r, policy));
}

/** Measured engine speedup on @p workers threads; dies on divergence
 *  or any mismatch with the sequential replayer. */
double
measuredSpeedup(const rrbench::Recorded &r, int policy,
                std::uint32_t workers)
{
    // Both engines replay what the persistent data path delivers
    // (positioned reads + chunk decode), like `rrsim replay` on a
    // .rrlog file.
    std::vector<rr::rnr::CoreLog> patched =
        rrbench::roundTripThroughDisk(patchedLogs(r, policy));

    rr::rnr::Replayer seq(r.workload.program, patched,
                          r.initial.clone());
    const rr::rnr::ReplayResult sres = seq.run();

    rr::rnr::ParallelReplayOptions popts;
    popts.workers = workers;
    rr::rnr::ParallelReplayer par(r.workload.program,
                                  std::move(patched),
                                  r.initial.clone(), popts);
    const rr::rnr::ReplayResult pres = par.run();
    RR_ASSERT(pres.memory.fingerprint() == sres.memory.fingerprint() &&
                  pres.instructions == sres.instructions,
              "parallel engine diverged from sequential replay");
    return pres.measuredSpanSeconds > 0.0
               ? pres.measuredSerialSeconds / pres.measuredSpanSeconds
               : 1.0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rrbench;
    const BenchOptions opt = parseBenchOptions(argc, argv);

    printTitle("Extension: parallel replay speedup from recorded "
               "dependencies (Opt, 8 cores)");

    std::vector<rr::sim::RecorderConfig> pol(2);
    pol[0].mode = rr::sim::RecorderMode::Opt;
    pol[0].maxIntervalInstructions = 1024;
    pol[0].recordDependencies = true;
    pol[1].mode = rr::sim::RecorderMode::Opt;
    pol[1].maxIntervalInstructions = 4096;
    pol[1].recordDependencies = true;

    // The same 1K-cap configuration recorded on the home-directory
    // backend (Section 4.3): the dependency edges come from the sparse
    // routed snoop stream instead of the ring broadcast, so this column
    // shows parallel replay neither needs dense snooping nor loses its
    // speedup without it.
    std::vector<rr::sim::RecorderConfig> dpol(1);
    dpol[0] = pol[0];

    std::vector<RecordJob> jobs;
    for (const App &app : apps())
        jobs.push_back({app, 8, pol, rr::sim::CoherenceKind::Snoopy});
    for (const App &app : apps())
        jobs.push_back(
            {app, 8, dpol, rr::sim::CoherenceKind::Directory});
    const std::vector<Recorded> runs = recordAll(jobs, opt);
    const std::size_t napps = apps().size();
    // Recorded is move-only, so address the halves of `runs` in place.
    const auto suite = [&](std::size_t i) -> const Recorded & {
        return runs[i];
    };
    const auto dsuite = [&](std::size_t i) -> const Recorded & {
        return runs[napps + i];
    };

    std::vector<rr::rnr::ParallelSchedule> s1s(napps);
    std::vector<rr::rnr::ParallelSchedule> s4s(napps);
    std::vector<rr::rnr::ParallelSchedule> d1s(napps);
    rr::sim::parallelFor(opt.jobs, napps * 3, [&](std::size_t j) {
        const std::size_t i = j / 3;
        if (j % 3 == 0)
            s1s[i] = scheduleFor(suite(i), 0);
        else if (j % 3 == 1)
            s4s[i] = scheduleFor(suite(i), 1);
        else
            d1s[i] = scheduleFor(dsuite(i), 0);
    });

    // The engine runs are themselves multi-threaded (8 workers each),
    // so they go one at a time — overlapping them would just have the
    // engines contend for the same host cores and distort every
    // measured duration.
    std::vector<double> m1s(napps);
    std::vector<double> md1s(napps);
    for (std::size_t i = 0; i < napps; ++i) {
        m1s[i] = measuredSpeedup(suite(i), 0, 8);
        md1s[i] = measuredSpeedup(dsuite(i), 0, 8);
    }

    printColumns({"app", "model-1K", "measured-1K", "model-4K",
                  "dir-1K", "dir-meas", "edges/interval"});
    double sum1k = 0, summ = 0, sum4k = 0, sumd = 0, sumdm = 0;
    for (std::size_t i = 0; i < apps().size(); ++i) {
        const App &app = apps()[i];
        const auto &s1 = s1s[i];
        const auto &s4 = s4s[i];
        sum1k += s1.speedup();
        summ += m1s[i];
        sum4k += s4.speedup();
        sumd += d1s[i].speedup();
        sumdm += md1s[i];
        printCell(app.name);
        printCell(s1.speedup(), 2);
        printCell(m1s[i], 2);
        printCell(s4.speedup(), 2);
        printCell(d1s[i].speedup(), 2);
        printCell(md1s[i], 2);
        printCell(static_cast<double>(s1.edges) /
                      static_cast<double>(
                          std::max<std::uint64_t>(1, s1.intervals)),
                  2);
        endRow();
    }
    printCell("average");
    printCell(sum1k / apps().size(), 2);
    printCell(summ / apps().size(), 2);
    printCell(sum4k / apps().size(), 2);
    printCell(sumd / apps().size(), 2);
    printCell(sumdm / apps().size(), 2);
    endRow();
    std::printf("(measured-1K: ParallelReplayer, 8 workers, verified "
                "against sequential replay; upper bound is the core "
                "count, 8; barrier-heavy apps serialize at barriers)\n");

    const double best =
        *std::max_element(m1s.begin(), m1s.end());
    const double dbest =
        *std::max_element(md1s.begin(), md1s.end());
    if (best < 1.5 || dbest < 1.5) {
        std::printf("FAIL: best measured speedup snoopy %.2fx / "
                    "directory %.2fx < 1.5x\n",
                    best, dbest);
        return 1;
    }
    std::printf("best measured speedup snoopy %.2fx, directory %.2fx "
                "(>= 1.5x threshold)\n",
                best, dbest);
    return 0;
}
