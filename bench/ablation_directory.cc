/**
 * @file
 * Ablation: the directory-coherence extension (Section 4.3). Under a
 * directory protocol a cache stops observing a line's transactions
 * after losing its tracking state, so RelaxReplay_Opt conservatively
 * bumps the Snoop Table on those events — turning any still-uncounted
 * access to the line into a reordered entry. This bench measures the
 * cost of that conservatism as extra reordered accesses and log bits,
 * two ways:
 *
 *  - "snoopy":    the ring backend, no bump (the paper's baseline);
 *  - "directory": the real home-directory MESI backend (src/mem/
 *                 directory.cc), where the bumps come from actual
 *                 protocol events — PutM writebacks and directory
 *                 entry destruction — and the snoop stream itself is
 *                 sparse (only routed transactions are observed).
 *
 * Correctness of both is enforced by the replay check's kernel rows
 * (tests/integration/test_replay_check.cc); this bench only
 * quantifies the log-size cost.
 */

#include "bench/common.hh"

int
main(int argc, char **argv)
{
    using namespace rrbench;
    const BenchOptions opt = parseBenchOptions(argc, argv);

    printTitle("Ablation: Section 4.3 dirty-eviction conservatism "
               "(Opt-INF, 8 cores)");

    std::vector<rr::sim::RecorderConfig> pol(1);
    pol[0].mode = rr::sim::RecorderMode::Opt;

    std::vector<RecordJob> jobs;
    for (const rr::sim::CoherenceKind kind :
         {rr::sim::CoherenceKind::Snoopy,
          rr::sim::CoherenceKind::Directory})
        for (const App &app : apps())
            jobs.push_back({app, 8, pol, kind});
    const std::vector<Recorded> runs = recordAll(jobs, opt);

    printColumns({"app", "snoopy r%", "dir r%", "snoopy b/ki",
                  "dir b/ki"});
    double s_sum = 0, d_sum = 0;
    for (std::size_t i = 0; i < apps().size(); ++i) {
        const App &app = apps()[i];
        const Recorded &r = runs[i];
        const Recorded &rd = runs[apps().size() + i];
        const double s = 100.0 * r.logStats(0).reordered() /
                         static_cast<double>(r.countedMem());
        const double d = 100.0 * rd.logStats(0).reordered() /
                         static_cast<double>(rd.countedMem());
        s_sum += s;
        d_sum += d;
        printCell(app.name);
        printCell(s, 4);
        printCell(d, 4);
        printCell(bitsPerKinst(r, 0), 1);
        printCell(bitsPerKinst(rd, 0), 1);
        endRow();
    }
    printCell("average");
    printCell(s_sum / apps().size(), 4);
    printCell(d_sum / apps().size(), 4);
    endRow();
    return 0;
}
