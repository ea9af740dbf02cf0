#include <gtest/gtest.h>

#include "rnr/mrr_hub.hh"

namespace
{

using namespace rr::rnr;
using rr::cpu::RetireInfo;
using rr::mem::AccessKind;
using rr::mem::PerformEvent;
using rr::mem::SnoopEvent;
using rr::mem::StampClock;
using rr::sim::RecorderConfig;
using rr::sim::RecorderMode;
using rr::sim::SeqNum;

class MrrHubTest : public ::testing::Test
{
  protected:
    MrrHubTest()
    {
        RecorderConfig base;
        base.mode = RecorderMode::Base;
        RecorderConfig opt;
        opt.mode = RecorderMode::Opt;
        hub = std::make_unique<MrrHub>(
            0, std::vector<RecorderConfig>{base, opt}, clock,
            rr::sim::CoherenceKind::Snoopy);
    }

    rr::isa::Instruction
    loadInst()
    {
        return {rr::isa::Opcode::Ld, 3, 4, 0, 0};
    }

    rr::isa::Instruction
    storeInst()
    {
        return {rr::isa::Opcode::St, 0, 4, 5, 0};
    }

    void
    perform(SeqNum seq, AccessKind kind, rr::sim::Addr addr,
            std::uint64_t lv = 0, std::uint64_t sv = 0)
    {
        hub->onPerform(PerformEvent{0, seq, kind, addr, lv, sv,
                                    clock.next(), 0});
    }

    void
    retire(SeqNum seq, bool is_mem, std::uint64_t load_value = 0)
    {
        hub->onRetire(RetireInfo{seq,
                                 0,
                                 is_mem ? rr::isa::Opcode::Ld
                                        : rr::isa::Opcode::Add,
                                 is_mem, load_value, 0});
    }

    StampClock clock;
    std::unique_ptr<MrrHub> hub;
};

TEST_F(MrrHubTest, CountsAfterPerformAndRetire)
{
    hub->onDispatchMem(0, loadInst(), 0);
    EXPECT_EQ(hub->occupancy(), 1u);
    perform(0, AccessKind::Load, 0x1000, 5);
    EXPECT_EQ(hub->occupancy(), 1u); // not retired yet
    retire(0, true);
    EXPECT_EQ(hub->occupancy(), 0u);
    EXPECT_EQ(hub->stats().counterValue("counted_mem"), 1u);
}

TEST_F(MrrHubTest, StorePerformAfterRetireAlsoCounts)
{
    hub->onDispatchMem(0, storeInst(), 0);
    retire(0, true);
    EXPECT_EQ(hub->occupancy(), 1u); // stores wait for perform
    perform(0, AccessKind::Store, 0x1000, 0, 9);
    EXPECT_EQ(hub->occupancy(), 0u);
}

TEST_F(MrrHubTest, HeadOfLineBlocking)
{
    hub->onDispatchMem(0, storeInst(), 0);
    hub->onDispatchMem(1, loadInst(), 0);
    perform(1, AccessKind::Load, 0x2000, 1);
    retire(0, true);
    retire(1, true);
    // The store at the head has not performed: nothing counts.
    EXPECT_EQ(hub->occupancy(), 2u);
    perform(0, AccessKind::Store, 0x1000, 0, 2);
    EXPECT_EQ(hub->occupancy(), 0u);
}

TEST_F(MrrHubTest, OutOfOrderPerformDetected)
{
    hub->onDispatchMem(0, storeInst(), 0);
    hub->onDispatchMem(1, loadInst(), 0);
    perform(1, AccessKind::Load, 0x2000, 1); // older store pending: OOO
    retire(0, true);
    retire(1, true);
    perform(0, AccessKind::Store, 0x1000, 0, 2); // in order at its turn
    EXPECT_EQ(hub->stats().counterValue("ooo_loads"), 1u);
    EXPECT_EQ(hub->stats().counterValue("ooo_stores"), 0u);
}

TEST_F(MrrHubTest, SquashFlushesYoungEntries)
{
    hub->onDispatchMem(0, loadInst(), 0);
    hub->onDispatchMem(5, loadInst(), 0);
    hub->onDispatchMem(9, loadInst(), 0);
    hub->onSquash(5); // seq > 5 dies
    EXPECT_EQ(hub->occupancy(), 2u);
    EXPECT_EQ(hub->stats().counterValue("squashed_entries"), 1u);
}

TEST_F(MrrHubTest, PerformForSquashedSeqIsIgnored)
{
    hub->onDispatchMem(0, loadInst(), 0);
    hub->onSquash(rr::sim::SeqNum(-2)); // nothing squashed (survivor big)
    hub->onSquash(0);                   // no-op: 0 survives
    hub->onDispatchMem(1, loadInst(), 0);
    hub->onSquash(0); // seq 1 dies
    perform(1, AccessKind::Load, 0x2000, 1);
    EXPECT_EQ(hub->stats().counterValue("squashed_performs"), 1u);
}

TEST_F(MrrHubTest, NmiGroupsCountAfterRetireWatermark)
{
    hub->onDispatchNmiGroup(14, 15); // 15 non-mem instrs ending at seq 14
    EXPECT_EQ(hub->occupancy(), 1u);
    retire(10, false);
    EXPECT_EQ(hub->occupancy(), 1u); // last instr (14) not yet retired
    retire(14, false);
    EXPECT_EQ(hub->occupancy(), 0u);
    EXPECT_EQ(hub->stats().counterValue("counted_nmi_groups"), 1u);
}

TEST_F(MrrHubTest, BackPressureAtCapacity)
{
    RecorderConfig tiny;
    tiny.mode = RecorderMode::Base;
    tiny.traqEntries = 2;
    MrrHub small(0, {tiny}, clock, rr::sim::CoherenceKind::Snoopy);
    EXPECT_TRUE(small.canDispatchMem());
    small.onDispatchMem(0, loadInst(), 0);
    small.onDispatchMem(1, loadInst(), 0);
    EXPECT_FALSE(small.canDispatchMem());
}

TEST_F(MrrHubTest, HaltFinalizesAllPolicies)
{
    hub->onDispatchMem(0, loadInst(), 3); // 3 non-mem before it
    perform(0, AccessKind::Load, 0x1000, 7);
    retire(0, true);
    hub->onHalted(100, 2); // 2 trailing non-mem (incl. HALT)
    for (std::size_t p = 0; p < hub->numPolicies(); ++p) {
        const CoreLog &log = hub->recorder(p).log();
        ASSERT_EQ(log.intervals.size(), 1u);
        ASSERT_EQ(log.intervals[0].entries.size(), 1u);
        // 3 nmi + load + 2 residual = 6 instructions.
        EXPECT_EQ(log.intervals[0].entries[0], LogEntry::inorderBlock(6));
    }
}

TEST_F(MrrHubTest, HaltWaitsForDrainingStores)
{
    hub->onDispatchMem(0, storeInst(), 0);
    retire(0, true);
    hub->onHalted(50, 1); // store still in the write buffer
    EXPECT_EQ(hub->recorder(0).log().intervals.size(), 0u);
    perform(0, AccessKind::Store, 0x1000, 0, 9); // drains now
    EXPECT_EQ(hub->recorder(0).log().intervals.size(), 1u);
}

TEST_F(MrrHubTest, PoliciesDivergeOnOptFiltering)
{
    // A load whose counting crosses an interval boundary with no
    // conflicting transaction on its own line: Base logs it reordered,
    // Opt does not.
    hub->onDispatchMem(0, loadInst(), 0);
    perform(0, AccessKind::Load, 0x1000, 5);
    hub->onDispatchMem(1, storeInst(), 0);
    perform(1, AccessKind::Store, 0x5000, 0, 1);
    // Conflicting snoop on the store's line terminates both policies'
    // intervals (and bumps Opt's table for 0x5000 only).
    SnoopEvent sn{};
    sn.requester = 1;
    sn.lineAddr = rr::sim::lineAddr(0x5000);
    sn.isWrite = true;
    sn.stamp = clock.next();
    hub->onSnoop(0, sn);
    retire(0, true);
    retire(1, true);
    hub->onHalted(10, 0);
    EXPECT_EQ(hub->recorder(0).stats().counterValue("reordered_loads"),
              1u); // Base
    EXPECT_EQ(hub->recorder(1).stats().counterValue("reordered_loads"),
              0u); // Opt moved it
    EXPECT_EQ(
        hub->recorder(1).stats().counterValue("moved_across_intervals"),
        1u);
}

TEST_F(MrrHubTest, ForwardedLoadPerformIsRecorded)
{
    hub->onDispatchMem(0, loadInst(), 0);
    hub->onForwardedLoadPerform(0, 0x3000, 99, clock.next(), 5);
    retire(0, true);
    hub->onHalted(10, 0);
    EXPECT_EQ(hub->stats().counterValue("forwarded_performs"), 1u);
    // The forwarded value is retained: force a reordered case elsewhere
    // to check value plumbing via the Base policy on conflict... here
    // simply ensure it counted in order.
    EXPECT_EQ(hub->recorder(0).stats().counterValue("counted_mem"), 1u);
}

TEST_F(MrrHubTest, SnoopsForOtherCoresIgnored)
{
    SnoopEvent other{};
    other.requester = 1;
    other.lineAddr = 0x1000;
    other.isWrite = true;
    other.stamp = clock.next();
    hub->onSnoop(3, other);
    EXPECT_EQ(hub->stats().counterValue("snoops_observed"), 0u);
}

TEST_F(MrrHubTest, OccupancySampling)
{
    hub->onDispatchMem(0, loadInst(), 0);
    hub->sampleOccupancy();
    hub->sampleOccupancy();
    EXPECT_EQ(hub->occupancyHistogram().total(), 2u);
    EXPECT_EQ(hub->occupancyHistogram().binCount(0), 2u);
}

} // namespace
