/**
 * @file
 * The integration suite's one record -> .rrlog -> replay checker.
 *
 * check() records a Scenario once, with every recorder policy attached
 * to the same execution, streams each policy through a LogWriter, and
 * asserts per policy:
 *  (a) the file reads back equal to the in-memory log (entries, CISN,
 *      timestamp, edges — not the unserialized termination cycle),
 *      verify() is clean, and each core's log covers exactly its
 *      retired instructions;
 *  (b) the Replayer on one worker, which walks the recorded order,
 *      reproduces the recording: memory fingerprint and total
 *      instructions, and per core the load hash, load count,
 *      instruction count, final registers and halt;
 *  (c) with edges, the recorded partial order orders every cross-core
 *      conflict (checkConflicts(), without a fault plan); and the
 *      Replayer at 1, 2, 4 and 8 workers is bit-identical to (b),
 *      contexts and modelled cost included, fanning out exactly when
 *      it has more than one worker and a cross-core edge;
 *  (d) for kernels, svc::replayAndVerify on the file returns
 *      Verdict::Ok and names the engine by the recording's edges.
 * Under a fault plan, either all of that holds or replay fails typed
 * (rnr::ReplayDivergence or svc::JobRefused) at every worker count
 * alike.
 * Every failure carries the scenario's one-line repro.
 */

#ifndef RR_TESTS_INTEGRATION_REPLAY_CHECK_HH
#define RR_TESTS_INTEGRATION_REPLAY_CHECK_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "isa/program.hh"
#include "machine/machine.hh"
#include "mem/backing_store.hh"
#include "rnr/log.hh"
#include "sim/config.hh"
#include "workloads/runtime.hh"

namespace rr::check
{

struct Recorded;

/** One recorder policy. */
sim::RecorderConfig policy(sim::RecorderMode mode, std::uint64_t cap,
                           bool edges = false);

/** Base/Opt x INF/4096 without edges, Base/Opt x INF/1024 with. */
std::vector<sim::RecorderConfig> eightPolicies();

struct Scenario
{
    std::string name; ///< names the scenario in messages and files
    /** The program: a kernel, or `program` when kernel is empty. */
    std::string kernel;
    std::uint64_t scale = 1;
    std::uint64_t workloadSeed = workloads::WorkloadParams{}.seed;
    isa::Program program;
    std::string programLabel; ///< names `program` in the repro line
    std::uint32_t cores = 4;
    sim::CoherenceKind coherence = sim::CoherenceKind::Snoopy;
    /** The first policy's traqEntries sizes the shared TRAQ. */
    std::vector<sim::RecorderConfig> policies = eightPolicies();
    std::uint32_t jobs = 4; ///< replay workers of the service replay
    std::string faults;     ///< a recorder fault plan; empty = none
    /** Row-specific assertions on the recording, run before replay. */
    std::function<void(const Recorded &)> expect;
};

/** gtest prints a Scenario parameter by its name. */
void PrintTo(const Scenario &sc, std::ostream *os);

/** A finished recording of a Scenario. */
struct Recorded
{
    isa::Program program;
    /** The machine that ran it, for its statistics and final state. */
    std::unique_ptr<machine::Machine> machine;
    machine::RecordingResult rec;
    /** Statistics of each policy's log. */
    std::vector<rnr::LogStats> stats;
};

/**
 * Record @p sc under its fault plan. When @p paths is not empty,
 * policy p streams into a .rrlog at paths[p].
 */
Recorded record(const Scenario &sc,
                const std::vector<std::string> &paths = {});

/** The patched logs of @p r's policy @p pol, ready to replay. */
std::vector<rnr::CoreLog> patchedLogs(const Recorded &r, std::size_t pol);

/** Record @p sc and assert (a)-(d) for every policy. */
void check(const Scenario &sc);

/** What checkConflicts() found. */
struct ConflictReport
{
    /**
     * Same-word access pairs by intervals of different cores, at least
     * one of them a store, that the check compared.
     */
    std::uint64_t crossCoreConflicts = 0;
    /** The first such pair left unordered; empty when none is. */
    std::string firstUnordered;
};

/**
 * The property a fanned-out replay's shared memory image relies on.
 * Replays @p patched from @p initial in timestamp order, tracking each
 * word's last store and the loads since it, and checks that the
 * recorded partial order — each core's program order plus its
 * intervals' edges, as vector clocks — orders every cross-core
 * read-after-write, write-after-read and write-after-write pair.
 */
ConflictReport checkConflicts(const isa::Program &prog,
                              const std::vector<rnr::CoreLog> &patched,
                              const mem::BackingStore &initial);

/**
 * A random but terminating program: a counted loop of ALU ops,
 * accesses to a 16-word array at a fixed address (so every core of a
 * multithreaded run races on it), data-dependent branches and
 * fetch-adds.
 */
isa::Program randomProgram(std::uint64_t seed, bool multithreaded);

} // namespace rr::check

#endif // RR_TESTS_INTEGRATION_REPLAY_CHECK_HH
