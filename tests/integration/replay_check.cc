#include "replay_check.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <optional>
#include <sstream>
#include <unordered_map>

#include <unistd.h>

#include "isa/assembler.hh"
#include "rnr/divergence.hh"
#include "rnr/interval_interpreter.hh"
#include "rnr/logstore.hh"
#include "rnr/patcher.hh"
#include "rnr/replayer.hh"
#include "sim/faultinject.hh"
#include "sim/rng.hh"
#include "svc/pipeline.hh"
#include "workloads/kernels.hh"

namespace rr::check
{

namespace
{

/** Installs a fault plan for one recording; uninstalls on every exit. */
struct FaultGuard
{
    explicit FaultGuard(const std::string &spec)
    {
        if (!spec.empty())
            sim::FaultInjector::install(sim::FaultPlan::parse(spec));
    }
    ~FaultGuard() { sim::FaultInjector::uninstall(); }
};

std::string
label(const sim::RecorderConfig &rc)
{
    std::string s = sim::toString(rc.mode);
    s += "/" + (rc.maxIntervalInstructions
                    ? std::to_string(rc.maxIntervalInstructions)
                    : std::string("inf"));
    if (rc.recordDependencies)
        s += "+edges";
    return s;
}

/** Every field of @p sc, and the gtest filter that reruns it. */
std::string
describe(const Scenario &sc)
{
    std::ostringstream os;
    os << "scenario " << sc.name << ": ";
    if (sc.kernel.empty())
        os << sc.programLabel;
    else
        os << sc.kernel << " scale " << sc.scale << " workload seed "
           << sc.workloadSeed;
    os << ", " << sc.cores << " cores, " << sim::toString(sc.coherence)
       << ", policies";
    for (const sim::RecorderConfig &rc : sc.policies)
        os << " " << label(rc);
    os << ", TRAQ " << sc.policies.front().traqEntries << ", jobs "
       << sc.jobs;
    if (!sc.faults.empty())
        os << ", faults " << sc.faults;
    const ::testing::TestInfo *test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    if (test)
        os << "; rerun: tests_integration --gtest_filter='"
           << test->test_suite_name() << "." << test->name() << "'";
    return os.str();
}

/** The .rrlog metadata of @p sc recorded under @p rc. */
rnr::RecordingMeta
metaFor(const Scenario &sc, const sim::RecorderConfig &rc)
{
    svc::JobParams p;
    p.kernel = sc.kernel.empty() ? sc.name : sc.kernel;
    p.cores = sc.cores;
    p.scale = sc.scale;
    p.mode = rc.mode;
    p.intervalCap = rc.maxIntervalInstructions;
    p.deps = rc.recordDependencies;
    p.coherence = sc.coherence;
    rnr::RecordingMeta meta = svc::recordingMeta(p);
    meta.workloadSeed = sc.workloadSeed;
    return meta;
}

/** recordingSummary() with policy @p pol's interval counts. */
rnr::RecordingSummary
summaryFor(const machine::RecordingResult &rec, std::size_t pol)
{
    rnr::RecordingSummary s = svc::recordingSummary(rec);
    for (std::size_t c = 0; c < s.cores.size(); ++c)
        s.cores[c].intervals = rec.logs[pol][c].intervals.size();
    return s;
}

/** First register where @p a and @p b differ, or -1. */
int
firstRegDiff(const std::uint64_t *a, const std::uint64_t *b)
{
    for (std::uint32_t r = 0; r < isa::kNumRegs; ++r)
        if (a[r] != b[r])
            return static_cast<int>(r);
    return -1;
}

/** (a): @p back is @p mem apart from the unserialized cycle. */
void
expectSameLog(const rnr::CoreLog &back, const rnr::CoreLog &mem,
              sim::CoreId c)
{
    ASSERT_EQ(back.intervals.size(), mem.intervals.size())
        << "core " << c;
    for (std::size_t i = 0; i < mem.intervals.size(); ++i) {
        const rnr::IntervalRecord &a = back.intervals[i];
        const rnr::IntervalRecord &b = mem.intervals[i];
        if (a.entries != b.entries || a.cisn != b.cisn ||
            a.timestamp != b.timestamp ||
            a.predecessors != b.predecessors) {
            ADD_FAILURE() << "core " << c << " interval " << i
                          << " reads back different";
            return;
        }
    }
}

/** (b): @p res reproduces the recording @p rec. */
void
expectReproduces(const rnr::ReplayResult &res,
                 const machine::RecordingResult &rec)
{
    EXPECT_EQ(res.memory.fingerprint(), rec.memoryFingerprint);
    EXPECT_EQ(res.instructions, rec.totalInstructions);
    ASSERT_EQ(res.contexts.size(), rec.cores.size());
    for (std::size_t c = 0; c < rec.cores.size(); ++c) {
        const machine::CoreSummary &cs = rec.cores[c];
        const isa::ExecContext &ctx = res.contexts[c];
        EXPECT_EQ(res.loadHashes[c], cs.loadValueHash) << "core " << c;
        EXPECT_EQ(res.loadCounts[c], cs.retiredLoads) << "core " << c;
        EXPECT_EQ(ctx.instructions, cs.retiredInstructions)
            << "core " << c;
        EXPECT_TRUE(ctx.halted) << "core " << c;
        EXPECT_EQ(firstRegDiff(ctx.regs, cs.finalRegs.data()), -1)
            << "core " << c << " final registers";
    }
}

/** (c): @p par is bit-identical to @p seq. */
void
expectIdentical(const rnr::ReplayResult &par, const rnr::ReplayResult &seq)
{
    EXPECT_EQ(par.memory.fingerprint(), seq.memory.fingerprint());
    EXPECT_EQ(par.instructions, seq.instructions);
    EXPECT_EQ(par.intervals, seq.intervals);
    EXPECT_EQ(par.cost.userCycles, seq.cost.userCycles);
    EXPECT_EQ(par.cost.osCycles, seq.cost.osCycles);
    EXPECT_EQ(par.loadHashes, seq.loadHashes);
    EXPECT_EQ(par.loadCounts, seq.loadCounts);
    ASSERT_EQ(par.contexts.size(), seq.contexts.size());
    for (std::size_t c = 0; c < seq.contexts.size(); ++c) {
        const isa::ExecContext &a = par.contexts[c];
        const isa::ExecContext &b = seq.contexts[c];
        EXPECT_TRUE(a.pc == b.pc && a.halted == b.halted &&
                    a.instructions == b.instructions &&
                    firstRegDiff(a.regs, b.regs) == -1)
            << "core " << c << " context";
    }
}

/**
 * One line that reproduces @p sc's policy @p pol: an rrsim command
 * when rrsim can express the scenario, else the scenario's fields.
 */
std::string
repro(const Scenario &sc, std::size_t pol)
{
    // rrsim records one policy on a default-TRAQ machine from the
    // default workload seed; a fault plan draws per policy, so it
    // reproduces only when it was the recording's only policy.
    const sim::RecorderConfig &rc = sc.policies[pol];
    const bool expressible =
        !sc.kernel.empty() &&
        sc.workloadSeed == workloads::WorkloadParams{}.seed &&
        sc.policies.front().traqEntries ==
            sim::RecorderConfig{}.traqEntries &&
        (sc.faults.empty() || sc.policies.size() == 1);
    if (!expressible)
        return "repro: " + describe(sc) + "; policy " + label(rc);

    std::ostringstream os;
    os << "repro: rrsim ";
    if (!sc.faults.empty())
        os << "--faults " << sc.faults << " ";
    os << "replay " << sc.kernel << " --cores " << sc.cores << " --scale "
       << sc.scale << " --mode "
       << (rc.mode == sim::RecorderMode::Base ? "base" : "opt")
       << " --interval ";
    if (rc.maxIntervalInstructions)
        os << rc.maxIntervalInstructions;
    else
        os << "inf";
    if (sc.coherence != sim::CoherenceKind::Snoopy)
        os << " --coherence " << sim::toString(sc.coherence);
    if (rc.recordDependencies)
        os << " --deps --jobs " << sc.jobs;
    return os.str();
}

/** One interval: its core and its index in the core's log. */
struct IntervalId
{
    sim::CoreId core = 0;
    std::uint32_t index = 0;
};

/**
 * Vector clocks over each core's program order plus the recorded
 * edges: of(c, i)[k] counts core k's intervals that precede (c, i) or
 * are it.
 */
class Clocks
{
  public:
    explicit Clocks(const std::vector<rnr::CoreLog> &logs)
        : cores_(logs.size()), base_(logs.size() + 1, 0)
    {
        for (std::size_t c = 0; c < cores_; ++c)
            base_[c + 1] = base_[c] + logs[c].intervals.size();
        clocks_.assign(base_[cores_] * cores_, 0);
        // A topological order: advance each core while its next
        // interval's predecessors all have their clocks.
        std::vector<std::uint32_t> done(cores_, 0);
        for (bool progress = true; progress;) {
            progress = false;
            for (std::size_t c = 0; c < cores_; ++c) {
                const auto &intervals = logs[c].intervals;
                for (; done[c] < intervals.size(); ++done[c]) {
                    const rnr::IntervalRecord &iv = intervals[done[c]];
                    const bool ready = std::all_of(
                        iv.predecessors.begin(), iv.predecessors.end(),
                        [&](const rnr::IntervalDep &d) {
                            return d.core == c || done[d.core] > d.isn;
                        });
                    if (!ready)
                        break;
                    std::uint32_t *clock = of(c, done[c]);
                    if (done[c] > 0)
                        std::copy_n(of(c, done[c] - 1), cores_, clock);
                    for (const rnr::IntervalDep &d : iv.predecessors) {
                        const std::uint32_t *pred = of(d.core, d.isn);
                        for (std::size_t k = 0; k < cores_; ++k)
                            clock[k] = std::max(clock[k], pred[k]);
                    }
                    clock[c] = done[c] + 1;
                    progress = true;
                }
            }
        }
        for (std::size_t c = 0; c < cores_; ++c)
            EXPECT_EQ(done[c], logs[c].intervals.size())
                << "core " << c << ": the recorded edges form a cycle";
    }

    /** Whether the recorded order puts @p a before @p b. */
    bool
    ordered(const IntervalId &a, const IntervalId &b) const
    {
        return of(b.core, b.index)[a.core] > a.index;
    }

  private:
    std::uint32_t *
    of(std::size_t core, std::size_t index)
    {
        return &clocks_[(base_[core] + index) * cores_];
    }
    const std::uint32_t *
    of(std::size_t core, std::size_t index) const
    {
        return &clocks_[(base_[core] + index) * cores_];
    }

    std::size_t cores_;
    std::vector<std::size_t> base_;
    std::vector<std::uint32_t> clocks_;
};

/**
 * The recorded-order replay's memory, noting per word the interval that
 * stored it last and, per core, the last interval that loaded it
 * since, and checking each access against the accesses it conflicts
 * with.
 */
class ConflictMemory : public isa::MemoryIf
{
  public:
    ConflictMemory(mem::BackingStore image, const Clocks &clocks,
                   ConflictReport &report)
        : image_(std::move(image)), clocks_(clocks), report_(report)
    {
    }

    /** The interval the next accesses belong to. */
    IntervalId current;

    std::uint64_t
    read64(sim::Addr a) override
    {
        a = sim::wordAddr(a);
        Word &w = words_[a];
        if (w.stored)
            expectOrdered(w.store, "read-after-write", a);
        const auto same_core = [&](const IntervalId &r) {
            return r.core == current.core;
        };
        const auto it =
            std::find_if(w.loads.begin(), w.loads.end(), same_core);
        if (it == w.loads.end())
            w.loads.push_back(current);
        else
            *it = current;
        return image_.read64(a);
    }

    void
    write64(sim::Addr a, std::uint64_t v) override
    {
        a = sim::wordAddr(a);
        Word &w = words_[a];
        if (w.stored)
            expectOrdered(w.store, "write-after-write", a);
        for (const IntervalId &load : w.loads)
            expectOrdered(load, "write-after-read", a);
        w.loads.clear();
        w.store = current;
        w.stored = true;
        image_.write64(a, v);
    }

  private:
    struct Word
    {
        bool stored = false;
        IntervalId store;
        std::vector<IntervalId> loads; ///< at most one per core
    };

    /** Count @p earlier against the current access when they are on
     *  different cores, and note the first pair left unordered. */
    void
    expectOrdered(const IntervalId &earlier, const char *kind, sim::Addr a)
    {
        if (earlier.core == current.core)
            return;
        ++report_.crossCoreConflicts;
        if (clocks_.ordered(earlier, current) ||
            !report_.firstUnordered.empty())
            return;
        std::ostringstream os;
        os << kind << " on word 0x" << std::hex << a << std::dec
           << " unordered: core " << earlier.core << " interval "
           << earlier.index << ", then core " << current.core
           << " interval " << current.index;
        report_.firstUnordered = os.str();
    }

    mem::BackingStore image_;
    const Clocks &clocks_;
    ConflictReport &report_;
    std::unordered_map<sim::Addr, Word> words_;
};

void
checkPolicy(const Scenario &sc, const Recorded &r, std::size_t pol,
            const std::string &path)
{
    const sim::RecorderConfig &rc = sc.policies[pol];
    const std::vector<rnr::CoreLog> &logs = r.rec.logs[pol];
    const bool faulty = !sc.faults.empty();

    // (a) The file holds exactly the in-memory log.
    {
        rnr::LogReader reader(path);
        EXPECT_TRUE(reader.verify().empty());
        const std::vector<rnr::CoreLog> back = reader.readAll();
        ASSERT_EQ(back.size(), sc.cores);
        for (sim::CoreId c = 0; c < sc.cores; ++c)
            expectSameLog(back[c], logs[c], c);
    }
    for (sim::CoreId c = 0; c < sc.cores; ++c) {
        rnr::LogStats s;
        s.accumulate(logs[c]);
        EXPECT_EQ(s.instructions(), r.rec.cores[c].retiredInstructions)
            << "core " << c;
    }

    // (b) The engine on one worker, which walks the recorded order,
    // reproduces the recording.
    const std::vector<rnr::CoreLog> patched = patchedLogs(r, pol);
    const mem::BackingStore &initial = r.machine->initialMemory();
    std::optional<rnr::ReplayResult> seq;
    try {
        seq = rnr::Replayer(r.program, patched, initial.clone()).run();
    } catch (const rnr::ReplayDivergence &d) {
        EXPECT_TRUE(faulty) << d.report().format();
    }
    if (seq)
        expectReproduces(*seq, r.rec);

    // (c) The recorded order covers every cross-core conflict, and
    // the engine is bit-identical to (b) at every worker count. It
    // fans out only over logs whose DAG orders the cores at all.
    if (rc.recordDependencies && seq && !faulty) {
        EXPECT_EQ(checkConflicts(r.program, patched, initial).firstUnordered,
                  "");
    }
    bool cross_core = false;
    for (sim::CoreId c = 0; c < sc.cores; ++c)
        for (const rnr::IntervalRecord &iv : patched[c].intervals)
            for (const rnr::IntervalDep &d : iv.predecessors)
                cross_core |= d.core != c;
    for (const std::uint32_t workers : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(testing::Message() << workers << " workers");
        std::optional<rnr::ReplayResult> par;
        try {
            par = rnr::Replayer(r.program, patched, initial.clone(),
                                {workers, {}})
                      .run();
        } catch (const rnr::ReplayDivergence &d) {
            EXPECT_FALSE(seq) << d.report().format();
            continue;
        }
        ASSERT_TRUE(seq) << "only the one-worker replay diverged";
        expectIdentical(*par, *seq);
        const std::uint32_t lanes = std::min(workers, sc.cores);
        const bool fanned = lanes > 1 && cross_core;
        EXPECT_EQ(par->workers, fanned ? lanes : 1u);
        EXPECT_EQ(par->engineStats.scalar("worker_busy_seconds").count(),
                  fanned ? lanes : 0u);
    }

    // (d) The shipped file replay accepts it, and names the engine by
    // the recording's edges.
    if (sc.kernel.empty())
        return;
    svc::JobParams p;
    p.kind = svc::JobKind::Replay;
    p.file = path;
    p.jobs = sc.jobs;
    const svc::CancelToken token;
    try {
        const svc::ReplayOutcome out = svc::replayAndVerify(p, token);
        EXPECT_TRUE(out.verdict == svc::Verdict::Ok)
            << out.mismatchedCores.size() << " cores mismatch";
        EXPECT_EQ(out.parallel, rc.recordDependencies);
        EXPECT_TRUE(seq) << "only the one-worker replay diverged";
    } catch (const rnr::ReplayDivergence &d) {
        EXPECT_TRUE(faulty && !seq) << d.report().format();
    } catch (const svc::JobRefused &e) {
        EXPECT_TRUE(faulty) << e.what();
    }
}

} // namespace

sim::RecorderConfig
policy(sim::RecorderMode mode, std::uint64_t cap, bool edges)
{
    sim::RecorderConfig rc;
    rc.mode = mode;
    rc.maxIntervalInstructions = cap;
    rc.recordDependencies = edges;
    return rc;
}

std::vector<sim::RecorderConfig>
eightPolicies()
{
    using sim::RecorderMode;
    return {policy(RecorderMode::Base, 0),
            policy(RecorderMode::Base, 4096),
            policy(RecorderMode::Opt, 0),
            policy(RecorderMode::Opt, 4096),
            policy(RecorderMode::Base, 0, true),
            policy(RecorderMode::Base, 1024, true),
            policy(RecorderMode::Opt, 0, true),
            policy(RecorderMode::Opt, 1024, true)};
}

void
PrintTo(const Scenario &sc, std::ostream *os)
{
    *os << sc.name;
}

Recorded
record(const Scenario &sc, const std::vector<std::string> &paths)
{
    Recorded r;
    if (sc.kernel.empty()) {
        r.program = sc.program;
    } else {
        workloads::WorkloadParams wp;
        wp.numThreads = sc.cores;
        wp.scale = sc.scale;
        wp.seed = sc.workloadSeed;
        r.program = workloads::buildKernel(sc.kernel, wp).program;
    }
    sim::MachineConfig cfg;
    cfg.numCores = sc.cores;
    cfg.coherence = sc.coherence;
    {
        // The recorders bind the injector when the machine is built.
        FaultGuard guard(sc.faults);
        r.machine = std::make_unique<machine::Machine>(cfg, r.program,
                                                       sc.policies);
        std::vector<std::unique_ptr<rnr::LogWriter>> writers;
        for (std::size_t p = 0; p < paths.size(); ++p) {
            rnr::LogWriter *w =
                writers
                    .emplace_back(std::make_unique<rnr::LogWriter>(
                        paths[p], metaFor(sc, sc.policies[p])))
                    .get();
            r.machine->setIntervalSink(
                p, [w](sim::CoreId c, const rnr::IntervalRecord &iv) {
                    w->append(c, iv);
                });
        }
        r.rec = r.machine->run();
        for (std::size_t p = 0; p < writers.size(); ++p)
            writers[p]->finish(summaryFor(r.rec, p));
    }
    for (const auto &logs : r.rec.logs) {
        rnr::LogStats &s = r.stats.emplace_back();
        for (const auto &log : logs)
            s.accumulate(log);
    }
    return r;
}

std::vector<rnr::CoreLog>
patchedLogs(const Recorded &r, std::size_t pol)
{
    std::vector<rnr::CoreLog> out;
    for (const auto &log : r.rec.logs[pol])
        out.push_back(rnr::patch(log));
    return out;
}

void
check(const Scenario &sc)
{
    std::vector<std::string> paths;
    for (std::size_t p = 0; p < sc.policies.size(); ++p)
        paths.push_back(::testing::TempDir() + "rr_check_" +
                        std::to_string(::getpid()) + "_" + sc.name + "_" +
                        std::to_string(p) + ".rrlog");
    Recorded r;
    {
        SCOPED_TRACE(describe(sc));
        r = record(sc, paths);
        if (sc.expect)
            sc.expect(r);
    }
    for (std::size_t p = 0; p < sc.policies.size(); ++p) {
        SCOPED_TRACE(repro(sc, p));
        checkPolicy(sc, r, p, paths[p]);
        std::remove(paths[p].c_str());
    }
}

ConflictReport
checkConflicts(const isa::Program &prog,
               const std::vector<rnr::CoreLog> &patched,
               const mem::BackingStore &initial)
{
    ConflictReport report;
    const Clocks clocks(patched);
    ConflictMemory memory(initial.clone(), clocks, report);
    std::vector<IntervalId> order;
    for (std::size_t c = 0; c < patched.size(); ++c)
        for (std::size_t i = 0; i < patched[c].intervals.size(); ++i)
            order.push_back({static_cast<sim::CoreId>(c),
                             static_cast<std::uint32_t>(i)});
    std::sort(order.begin(), order.end(),
              [&](const IntervalId &a, const IntervalId &b) {
                  return patched[a.core].intervals[a.index].timestamp <
                         patched[b.core].intervals[b.index].timestamp;
              });

    const rnr::IntervalInterpreter interp(prog, patched);
    std::vector<isa::ExecContext> contexts;
    for (std::size_t c = 0; c < patched.size(); ++c)
        contexts.push_back(
            interp.startContext(static_cast<sim::CoreId>(c)));
    std::vector<std::deque<rnr::ReplayStep>> rings(patched.size());
    std::vector<rnr::IntervalInterpreter::Accum> acc(patched.size());
    for (const IntervalId &id : order) {
        memory.current = id;
        interp.replayInterval(id.core, id.index, contexts[id.core], memory,
                              rings[id.core], acc[id.core]);
    }
    return report;
}

isa::Program
randomProgram(std::uint64_t seed, bool multithreaded)
{
    using isa::Reg;
    sim::Rng rng(seed);
    isa::Assembler a;
    const Reg rBase = 20, rIter = 21, rTmp = 22;
    const std::uint64_t array_words = 16;

    // Private (or shared, when multithreaded) scratch array.
    a.li(rBase, 0x40000);
    if (multithreaded) {
        // All threads share the same array: maximal data racing.
    } else {
        a.nop();
    }
    a.li(rIter, 60 + rng.below(40));
    // Seed some working registers with distinct values.
    for (Reg r = 3; r <= 10; ++r)
        a.li(r, static_cast<std::int64_t>(rng.below(1000)));

    a.label("outer");
    const int body_len = 8 + static_cast<int>(rng.below(16));
    for (int i = 0; i < body_len; ++i) {
        const Reg rd = static_cast<Reg>(3 + rng.below(8));
        const Reg rs1 = static_cast<Reg>(3 + rng.below(8));
        const Reg rs2 = static_cast<Reg>(3 + rng.below(8));
        switch (rng.below(10)) {
          case 0:
          case 1:
            a.add(rd, rs1, rs2);
            break;
          case 2:
            a.sub(rd, rs1, rs2);
            break;
          case 3:
            a.mul(rd, rs1, rs2);
            break;
          case 4:
            a.xor_(rd, rs1, rs2);
            break;
          case 5: { // load from the array (masked index)
            a.andi(rTmp, rs1, static_cast<std::int64_t>(array_words - 1));
            a.slli(rTmp, rTmp, 3);
            a.add(rTmp, rTmp, rBase);
            a.ld(rd, rTmp, 0);
            break;
          }
          case 6: { // store to the array
            a.andi(rTmp, rs1, static_cast<std::int64_t>(array_words - 1));
            a.slli(rTmp, rTmp, 3);
            a.add(rTmp, rTmp, rBase);
            a.st(rs2, rTmp, 0);
            break;
          }
          case 7: { // data-dependent forward branch
            const std::string skip =
                "skip" + std::to_string(seed) + "_" + std::to_string(i);
            a.andi(rTmp, rs1, 1);
            a.beq(rTmp, 0, skip);
            a.addi(rd, rd, 3);
            a.label(skip);
            break;
          }
          case 8: // fetch-add on the array head
            a.fadd(rd, rs2, rBase, 0);
            break;
          default:
            a.addi(rd, rs1, static_cast<std::int64_t>(rng.below(64)));
            break;
        }
    }
    a.addi(rIter, rIter, -1);
    a.bne(rIter, 0, "outer");
    a.halt();
    return a.assemble();
}

} // namespace rr::check
