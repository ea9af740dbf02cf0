#include "workloads/runtime.hh"

#include "sim/logging.hh"

namespace rr::workloads
{

namespace
{
/** Workload data lives above the (unused) low addresses. */
constexpr sim::Addr kHeapBase = 0x10000;
} // namespace

KernelBuilder::KernelBuilder(std::string name, const WorkloadParams &params)
    : name_(std::move(name)), params_(params), cursor_(kHeapBase)
{
    RR_ASSERT(params_.numThreads >= 1, "workload needs threads");
    // Barrier state: arrival count at +0, global sense on its own line
    // at +32 (sharing a line would make every arrival's fetch-add
    // invalidate all spinners).
    barrierBase_ = alloc("__barrier", 8);
    // One private line (sense word) per thread.
    senseBase_ = alloc("__sense", 4ULL * params_.numThreads);
}

std::string
KernelBuilder::uniq(const std::string &base)
{
    return name_ + "." + base + "." + std::to_string(labelCounter_++);
}

sim::Addr
KernelBuilder::alloc(const std::string &region, std::uint64_t words)
{
    RR_ASSERT(!regions_.count(region), "region '%s' allocated twice",
              region.c_str());
    // Line-align every region and keep one guard line between regions so
    // unrelated regions never share a cache line (false sharing is then
    // an explicit workload choice, not a layout accident).
    const sim::Addr base = cursor_;
    regions_[region] = base;
    const std::uint64_t bytes = (words + 4) * sim::kWordBytes;
    cursor_ += (bytes + sim::kLineBytes - 1) &
               ~static_cast<sim::Addr>(sim::kLineBytes - 1);
    return base;
}

sim::Addr
KernelBuilder::region(const std::string &region) const
{
    auto it = regions_.find(region);
    RR_ASSERT(it != regions_.end(), "unknown region '%s'",
              region.c_str());
    return it->second;
}

void
KernelBuilder::initWord(sim::Addr addr, std::uint64_t value)
{
    a_.data(addr, value);
}

void
KernelBuilder::emitPreamble()
{
    a_.li(rOne, 1);
}

void
KernelBuilder::loadImm(isa::Reg rd, std::uint64_t value)
{
    a_.li(rd, static_cast<std::int64_t>(value));
}

void
KernelBuilder::emitBackoff(isa::Reg counter)
{
    // A short register-only delay between probes of a contended line.
    // Without it, a spinning thread fills the ROB with loads of the
    // flag line, and every one of them that straddles the releasing
    // store is (correctly) logged as reordered — real spin-wait
    // implementations back off for exactly this class of reason.
    const std::string loop = uniq("backoff");
    a_.li(counter, static_cast<std::int64_t>(kBackoffIterations));
    a_.label(loop);
    a_.addi(counter, counter, -1);
    a_.bne(counter, 0, loop);
}

void
KernelBuilder::lockAcquire(isa::Reg base_reg, std::int64_t off)
{
    const std::string retry = uniq("lock_retry");
    const std::string spin = uniq("lock_spin");
    const std::string got = uniq("lock_got");
    a_.label(retry);
    a_.xchg(rScratch4, rOne, base_reg, off);
    a_.beq(rScratch4, 0, got);
    a_.label(spin);
    emitBackoff(rScratch3);
    a_.ld(rScratch4, base_reg, off);
    a_.bne(rScratch4, 0, spin);
    a_.jmp(retry);
    a_.label(got);
    a_.fence(); // acquire
}

void
KernelBuilder::lockRelease(isa::Reg base_reg, std::int64_t off)
{
    a_.fence(); // release
    a_.st(0, base_reg, off);
}

void
KernelBuilder::pause()
{
    emitBackoff(rScratch0);
}

sim::Addr
KernelBuilder::allocTicketLock(const std::string &region)
{
    // Word 0: next ticket; word at +32: now-serving (separate lines so
    // ticket fetch-adds do not invalidate the spinners).
    return alloc(region, 8);
}

void
KernelBuilder::ticketAcquire(isa::Reg base_reg)
{
    const std::string spin = uniq("ticket_spin");
    const std::string got = uniq("ticket_got");
    a_.fadd(rScratch2, rOne, base_reg, 0); // my ticket
    a_.label(spin);
    a_.ld(rScratch4, base_reg, 32); // now serving
    a_.beq(rScratch4, rScratch2, got);
    emitBackoff(rScratch3);
    a_.jmp(spin);
    a_.label(got);
    a_.fence(); // acquire
}

void
KernelBuilder::ticketRelease(isa::Reg base_reg)
{
    a_.fence(); // release
    // Only the holder writes `serving`: a plain increment suffices.
    a_.ld(rScratch4, base_reg, 32);
    a_.addi(rScratch4, rScratch4, 1);
    a_.st(rScratch4, base_reg, 32);
}

void
KernelBuilder::barrier()
{
    const std::string spin = uniq("bar_spin");
    const std::string last = uniq("bar_last");
    const std::string done = uniq("bar_done");

    // My private sense slot: senseBase_ + tid * lineBytes.
    a_.fence();
    a_.slli(rScratch2, isa::kRegThreadId, 5); // tid * 32
    a_.li(rScratch3, static_cast<std::int64_t>(senseBase_));
    a_.add(rScratch2, rScratch2, rScratch3);
    a_.ld(rScratch3, rScratch2, 0);
    a_.xori(rScratch3, rScratch3, 1); // flipped local sense
    a_.st(rScratch3, rScratch2, 0);

    a_.li(rScratch2, static_cast<std::int64_t>(barrierBase_));
    a_.fadd(rScratch4, rOne, rScratch2, 0); // old arrival count
    a_.addi(rScratch4, rScratch4, 1);
    a_.beq(rScratch4, isa::kRegNumThreads, last);

    a_.label(spin);
    emitBackoff(rScratch1);
    a_.ld(rScratch4, rScratch2, 32); // global sense
    a_.bne(rScratch4, rScratch3, spin);
    a_.jmp(done);

    a_.label(last);
    a_.st(0, rScratch2, 0); // reset count for reuse
    a_.fence();             // count reset visible before the release
    a_.st(rScratch3, rScratch2, 32);

    a_.label(done);
    a_.fence(); // acquire side
}

Workload
KernelBuilder::finish()
{
    Workload w;
    w.name = name_;
    w.numThreads = params_.numThreads;
    w.program = a_.assemble();
    // Every region lies below the allocation cursor.
    w.program.memoryBytes = cursor_;
    w.regions = regions_;
    return w;
}

} // namespace rr::workloads
