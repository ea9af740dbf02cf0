/**
 * @file
 * Figure 13 reproduction: sequential replay time normalized to the
 * (parallel, 8-core) recording time, broken into User and OS cycles,
 * for Opt and Base logs under 4K and INF intervals.
 *
 * As in the paper, the replay control module is emulated: the exact
 * functional replayer processes the log while a calibrated cost model
 * (rnr/replay_cost.hh) charges native block execution to User cycles
 * and interval ordering / log decoding / reordered-instruction
 * emulation to OS cycles.
 *
 * Paper reference (avg): Opt 8.5x (4K) / 6.7x (INF); Base 26.2x (4K) /
 * 8.6x (INF); OS time one third to one sixth of replay time.
 */

#include "bench/common.hh"

#include <array>

#include "rnr/patcher.hh"
#include "rnr/replayer.hh"
#include "sim/task_pool.hh"

namespace
{

rr::rnr::ReplayCost
replayCost(const rrbench::Recorded &r, int policy)
{
    std::vector<rr::rnr::CoreLog> patched;
    for (const auto &log : r.result.logs.at(policy))
        patched.push_back(rr::rnr::patch(log));
    // Replay what the persistent data path delivers, not the in-memory
    // recording.
    patched = rrbench::roundTripThroughDisk(patched);
    rr::rnr::Replayer rep(r.workload.program, std::move(patched),
                          r.initial.clone());
    return rep.run().cost;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rrbench;
    const BenchOptions opt = parseBenchOptions(argc, argv);

    printTitle("Figure 13: sequential replay time / parallel recording "
               "time (8 cores)");
    const std::vector<Recorded> suite = recordSuite(8, fourPolicies(), opt);

    // The replays are read-only over the recordings, so they fan out
    // over app x policy jobs just like the recordings did.
    std::vector<std::array<rr::rnr::ReplayCost, kNumPolicies>> costs(
        suite.size());
    rr::sim::parallelFor(opt.jobs, suite.size() * kNumPolicies,
                         [&suite, &costs](std::size_t j) {
                             const std::size_t i = j / kNumPolicies;
                             const int p =
                                 static_cast<int>(j % kNumPolicies);
                             costs[i][p] = replayCost(suite[i], p);
                         });

    printColumns({"app", "Opt-4K", "(os%)", "Base-4K", "(os%)", "Opt-INF",
                  "(os%)", "Base-INF", "(os%)"});
    const int order[4] = {kOpt4K, kBase4K, kOptInf, kBaseInf};
    double sums[kNumPolicies] = {};
    double os_share[kNumPolicies] = {};
    for (std::size_t i = 0; i < apps().size(); ++i) {
        const App &app = apps()[i];
        const Recorded &r = suite[i];
        printCell(app.name);
        for (int p : order) {
            const rr::rnr::ReplayCost cost = costs[i][p];
            const double x = static_cast<double>(cost.total()) /
                             static_cast<double>(r.result.cycles);
            const double os = 100.0 * static_cast<double>(cost.osCycles) /
                              static_cast<double>(cost.total());
            sums[p] += x;
            os_share[p] += os;
            printCell(x, 1);
            printCell(os, 0);
        }
        endRow();
    }
    printCell("average");
    for (int p : order) {
        printCell(sums[p] / apps().size(), 1);
        printCell(os_share[p] / apps().size(), 0);
    }
    endRow();
    std::printf("(paper averages: Opt 8.5x/6.7x, Base 26.2x/8.6x for "
                "4K/INF; OS 1/6..1/3)\n");
    return 0;
}
