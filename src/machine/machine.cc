#include "machine/machine.hh"

#include "sim/logging.hh"

namespace rr::machine
{

/** Collects the per-core architectural reference trace. */
class Machine::TraceListener : public cpu::CoreListener
{
  public:
    void
    onRetire(const cpu::RetireInfo &info) override
    {
        ++summary.retiredInstructions;
        if (info.op == isa::Opcode::Ld || info.op == isa::Opcode::Xchg ||
            info.op == isa::Opcode::Fadd) {
            ++summary.retiredLoads;
            summary.loadValueHash =
                mixLoadValue(summary.loadValueHash, info.loadValue);
        }
    }

    CoreSummary summary;
};

Machine::Machine(const sim::MachineConfig &cfg, isa::Program prog,
                 const std::vector<sim::RecorderConfig> &policies)
    : cfg_(cfg), prog_(std::move(prog)), backing_(prog_),
      initial_(backing_.clone())
{
    cfg_.validate();
    RR_ASSERT(!policies.empty(), "need at least one recorder policy");

    memsys_ = mem::createMemorySystem(cfg_, backing_, clock_);

    for (sim::CoreId c = 0; c < cfg_.numCores; ++c) {
        cores_.push_back(std::make_unique<cpu::Core>(c, cfg_, prog_,
                                                     *memsys_, clock_));
        hubs_.push_back(
            std::make_unique<rnr::MrrHub>(c, policies, clock_,
                                          cfg_.coherence));
        tracers_.push_back(std::make_unique<TraceListener>());
        cores_[c]->addListener(hubs_[c].get());
        cores_[c]->addListener(tracers_[c].get());
        // The hub only consumes core c's events; register it for
        // direct routing instead of the broadcast fan-out.
        memsys_->addCoreObserver(c, hubs_[c].get());
        cores_[c]->start(c, cfg_.numCores);
    }

    std::vector<rnr::MrrHub *> peers;
    for (auto &hub : hubs_)
        peers.push_back(hub.get());
    for (auto &hub : hubs_)
        hub->setPeers(peers);
}

Machine::~Machine() = default;

void
Machine::setIntervalSink(
    std::size_t policy,
    std::function<void(sim::CoreId, const rnr::IntervalRecord &)> sink)
{
    RR_ASSERT(!ran_, "setIntervalSink must be called before run");
    for (sim::CoreId c = 0; c < cfg_.numCores; ++c) {
        hubs_[c]->recorder(policy).setIntervalSink(
            [sink, c](const rnr::IntervalRecord &iv) { sink(c, iv); });
    }
}

void
Machine::collectStats(std::vector<const sim::StatSet *> &out)
{
    out.push_back(&memsys_->stats());
    for (auto &core : cores_)
        out.push_back(&core->stats());
    for (auto &hub : hubs_) {
        out.push_back(&hub->stats());
        for (std::size_t p = 0; p < hub->numPolicies(); ++p)
            out.push_back(&hub->recorder(p).stats());
    }
}

RecordingResult
Machine::run(std::uint64_t max_cycles)
{
    RR_ASSERT(!ran_, "Machine::run may only be called once");
    ran_ = true;

    for (cycle_ = 0;; ++cycle_) {
        memsys_->tick(cycle_);
        bool all_done = memsys_->quiescent();
        for (auto &core : cores_) {
            core->tick(cycle_);
            all_done = all_done && core->quiescent();
        }
        for (auto &hub : hubs_)
            hub->sampleOccupancy();
        if (all_done && memsys_->quiescent())
            break;
        if (cycle_ >= max_cycles)
            sim::fatal("machine did not quiesce in %llu cycles "
                       "(deadlock or runaway workload)",
                       static_cast<unsigned long long>(max_cycles));
    }

    RecordingResult res;
    res.cycles = cycle_;
    const std::size_t num_policies = hubs_.front()->numPolicies();
    res.logs.resize(num_policies);
    for (std::size_t p = 0; p < num_policies; ++p) {
        for (auto &hub : hubs_)
            res.logs[p].push_back(hub->recorder(p).takeLog());
    }
    for (sim::CoreId c = 0; c < cfg_.numCores; ++c) {
        CoreSummary s = tracers_[c]->summary;
        for (std::uint32_t r = 0; r < isa::kNumRegs; ++r)
            s.finalRegs[r] = cores_[c]->archReg(r);
        res.totalInstructions += s.retiredInstructions;
        res.cores.push_back(s);
    }
    res.memoryFingerprint = backing_.fingerprint();
    return res;
}

} // namespace rr::machine
