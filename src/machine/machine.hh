/**
 * @file
 * Whole-machine assembly: cores + MRR hubs + memory system + backing
 * store, plus the recording driver that runs a program to completion and
 * packages everything needed for replay and for the evaluation figures.
 */

#ifndef RR_MACHINE_MACHINE_HH
#define RR_MACHINE_MACHINE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cpu/core.hh"
#include "mem/backing_store.hh"
#include "mem/memory_system.hh"
#include "rnr/log.hh"
#include "rnr/mrr_hub.hh"
#include "sim/config.hh"
#include "sim/stats.hh"

namespace rr::machine
{

/** Per-core architectural summary of a recorded execution. */
struct CoreSummary
{
    std::uint64_t retiredInstructions = 0;
    std::uint64_t retiredLoads = 0; ///< loads + atomics
    /** Order-sensitive hash chain over retired load/atomic values. */
    std::uint64_t loadValueHash = 0;
    std::array<std::uint64_t, isa::kNumRegs> finalRegs{};
};

/** Everything a recording run produces. */
struct RecordingResult
{
    sim::Cycle cycles = 0;
    std::vector<CoreSummary> cores;
    /** logs[policy][core]. */
    std::vector<std::vector<rnr::CoreLog>> logs;
    std::uint64_t memoryFingerprint = 0;
    std::uint64_t totalInstructions = 0;
};

/** Hash chain used for the recorded and replayed load-value traces. */
using rnr::mixLoadValue;

class Machine
{
  public:
    /**
     * @param policies Recorder configurations to record simultaneously
     *        (at least one); all share each core's TRAQ.
     */
    Machine(const sim::MachineConfig &cfg, isa::Program prog,
            const std::vector<sim::RecorderConfig> &policies);
    ~Machine();

    /**
     * Run to completion (every core halted, memory quiescent).
     * @param max_cycles Deadlock guard; fatal() when exceeded.
     */
    RecordingResult run(std::uint64_t max_cycles = 2'000'000'000ULL);

    /** Memory image before the run (for replay). */
    const mem::BackingStore &initialMemory() const { return initial_; }

    cpu::Core &core(sim::CoreId c) { return *cores_.at(c); }
    rnr::MrrHub &hub(sim::CoreId c) { return *hubs_.at(c); }

    /**
     * Stream every interval policy @p policy closes, on any core, into
     * @p sink as recording proceeds (the persistent log store's entry
     * point; see rnr::LogWriter). Call before run().
     */
    void setIntervalSink(
        std::size_t policy,
        std::function<void(sim::CoreId, const rnr::IntervalRecord &)>
            sink);

    /**
     * Append every StatSet this machine owns (memory system, cores, MRR
     * hubs, and each hub's per-policy recorders) to @p out, for JSON/CSV
     * export. The pointers stay valid as long as the Machine lives.
     */
    void collectStats(std::vector<const sim::StatSet *> &out);

    mem::MemorySystem &memorySystem() { return *memsys_; }
    mem::BackingStore &memory() { return backing_; }
    sim::Cycle cycles() const { return cycle_; }
    const sim::MachineConfig &config() const { return cfg_; }

  private:
    class TraceListener;

    sim::MachineConfig cfg_;
    /** Owned copy: callers may pass temporaries. */
    const isa::Program prog_;
    mem::StampClock clock_;
    mem::BackingStore backing_;
    mem::BackingStore initial_;
    std::unique_ptr<mem::MemorySystem> memsys_;
    std::vector<std::unique_ptr<cpu::Core>> cores_;
    std::vector<std::unique_ptr<rnr::MrrHub>> hubs_;
    std::vector<std::unique_ptr<TraceListener>> tracers_;
    sim::Cycle cycle_ = 0;
    bool ran_ = false;
};

} // namespace rr::machine

#endif // RR_MACHINE_MACHINE_HH
