#include <gtest/gtest.h>

#include <vector>

#include "mem/backing_store.hh"
#include "mem/memory_system.hh"

namespace
{

using namespace rr::mem;
using rr::sim::Addr;
using rr::sim::CoreId;
using rr::sim::Cycle;
using rr::sim::MachineConfig;

struct Completion
{
    CoreId core;
    std::uint64_t tag;
    AccessKind kind;
    std::uint64_t value;
    Cycle when;
};

/** Records completions, performs and snoops for assertions. */
class Harness : public MemClient, public MemoryObserver
{
  public:
    explicit Harness(std::uint32_t cores)
    {
        cfg.numCores = cores;
        mem = createMemorySystem(cfg, backing, clock);
        for (CoreId c = 0; c < cores; ++c)
            mem->setClient(c, this);
        mem->addObserver(this);
    }

    void
    memCompleted(std::uint64_t tag, AccessKind kind, std::uint64_t value,
                 Cycle when) override
    {
        completions.push_back(Completion{0, tag, kind, value, when});
    }

    void onPerform(const PerformEvent &ev) override
    {
        performs.push_back(ev);
    }

    void
    onSnoop(CoreId observer, const SnoopEvent &ev) override
    {
        snoops.emplace_back(observer, ev);
    }

    void
    onDirtyEviction(CoreId core, Addr line, std::uint64_t stamp) override
    {
        (void)stamp;
        evictions.emplace_back(core, line);
    }

    /** Run cycles [now, until). */
    void
    runUntil(Cycle until)
    {
        for (; now < until; ++now)
            mem->tick(now);
    }

    const Completion *
    completionFor(std::uint64_t tag) const
    {
        for (const auto &c : completions) {
            if (c.tag == tag)
                return &c;
        }
        return nullptr;
    }

    MachineConfig cfg;
    BackingStore backing{rr::isa::Program::kDefaultMemoryBytes};
    StampClock clock;
    std::unique_ptr<MemorySystem> mem;
    Cycle now = 0;
    std::vector<Completion> completions;
    std::vector<PerformEvent> performs;
    std::vector<std::pair<CoreId, SnoopEvent>> snoops;
    std::vector<std::pair<CoreId, Addr>> evictions;
};

TEST(MemorySystem, ColdLoadMissesAndReturnsMemoryValue)
{
    Harness h(2);
    h.backing.write64(0x1000, 77);
    h.runUntil(1);
    h.mem->access(0, AccessKind::Load, 0x1000, 0, 1);
    h.runUntil(300);
    const Completion *c = h.completionFor(1);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->value, 77u);
    // Cold miss: ring + L2 + memory latency, well beyond a hit.
    EXPECT_GT(c->when, 100u);
    EXPECT_EQ(h.mem->l1State(0, 0x1000), MesiState::Exclusive);
}

TEST(MemorySystem, SecondLoadHitsWithHitLatency)
{
    Harness h(2);
    h.runUntil(1);
    h.mem->access(0, AccessKind::Load, 0x1000, 0, 1);
    h.runUntil(300);
    const Cycle issue = h.now;
    h.mem->access(0, AccessKind::Load, 0x1008, 0, 2); // same line
    h.runUntil(issue + 10);
    const Completion *c = h.completionFor(2);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->when, issue - 1 + h.cfg.l1.hitLatency);
}

TEST(MemorySystem, StoreGrantsModified)
{
    Harness h(2);
    h.runUntil(1);
    h.mem->access(0, AccessKind::Store, 0x2000, 5, 1);
    h.runUntil(300);
    EXPECT_EQ(h.mem->l1State(0, 0x2000), MesiState::Modified);
    EXPECT_EQ(h.backing.read64(0x2000), 5u);
}

TEST(MemorySystem, ReadSharingDowngradesOwner)
{
    Harness h(2);
    h.runUntil(1);
    h.mem->access(0, AccessKind::Store, 0x2000, 5, 1);
    h.runUntil(300);
    h.mem->access(1, AccessKind::Load, 0x2000, 0, 2);
    h.runUntil(600);
    EXPECT_EQ(h.mem->l1State(0, 0x2000), MesiState::Shared);
    EXPECT_EQ(h.mem->l1State(1, 0x2000), MesiState::Shared);
    const Completion *c = h.completionFor(2);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->value, 5u);
}

TEST(MemorySystem, WriteInvalidatesSharers)
{
    Harness h(4);
    h.runUntil(1);
    for (CoreId c = 0; c < 3; ++c)
        h.mem->access(c, AccessKind::Load, 0x2000, 0, 10 + c);
    h.runUntil(600);
    h.mem->access(3, AccessKind::Store, 0x2000, 9, 20);
    h.runUntil(1200);
    for (CoreId c = 0; c < 3; ++c)
        EXPECT_EQ(h.mem->l1State(c, 0x2000), MesiState::Invalid);
    EXPECT_EQ(h.mem->l1State(3, 0x2000), MesiState::Modified);
}

TEST(MemorySystem, SnoopsBroadcastToAllButRequester)
{
    Harness h(4);
    h.runUntil(1);
    h.mem->access(2, AccessKind::Store, 0x2000, 1, 1);
    h.runUntil(300);
    ASSERT_EQ(h.snoops.size(), 3u);
    for (const auto &[observer, ev] : h.snoops) {
        EXPECT_NE(observer, 2u);
        EXPECT_EQ(ev.requester, 2u);
        EXPECT_TRUE(ev.isWrite);
        EXPECT_EQ(ev.lineAddr, rr::sim::lineAddr(0x2000));
    }
}

TEST(MemorySystem, SnoopStampPrecedesPerformStamp)
{
    // The dependence-ordering invariant: a transaction's snoop is
    // stamped before its perform events.
    Harness h(2);
    h.runUntil(1);
    h.mem->access(0, AccessKind::Store, 0x2000, 1, 1);
    h.runUntil(300);
    ASSERT_EQ(h.performs.size(), 1u);
    ASSERT_EQ(h.snoops.size(), 1u);
    EXPECT_LT(h.snoops[0].second.stamp, h.performs[0].stamp);
}

TEST(MemorySystem, HitsEmitNoSnoops)
{
    Harness h(2);
    h.runUntil(1);
    h.mem->access(0, AccessKind::Store, 0x2000, 1, 1);
    h.runUntil(300);
    const std::size_t snoops_before = h.snoops.size();
    h.mem->access(0, AccessKind::Store, 0x2000, 2, 2); // M hit
    h.runUntil(400);
    EXPECT_EQ(h.snoops.size(), snoops_before);
}

TEST(MemorySystem, WriteAtomicityValueOrder)
{
    // Two cores store to the same word; the final value must match the
    // serialization (perform-stamp) order.
    Harness h(2);
    h.runUntil(1);
    h.mem->access(0, AccessKind::Store, 0x3000, 111, 1);
    h.mem->access(1, AccessKind::Store, 0x3000, 222, 2);
    h.runUntil(1000);
    ASSERT_EQ(h.performs.size(), 2u);
    const PerformEvent *last = &h.performs[0];
    if (h.performs[1].stamp > last->stamp)
        last = &h.performs[1];
    EXPECT_EQ(h.backing.read64(0x3000), last->storeValue);
}

TEST(MemorySystem, SameLineRequestsSerialize)
{
    // In-flight blocking: the second core's transaction must not grant
    // while the first is in flight; both eventually complete.
    Harness h(2);
    h.runUntil(1);
    h.mem->access(0, AccessKind::Store, 0x3000, 1, 1);
    h.mem->access(1, AccessKind::Store, 0x3000, 2, 2);
    h.runUntil(2000);
    EXPECT_NE(h.completionFor(1), nullptr);
    EXPECT_NE(h.completionFor(2), nullptr);
    EXPECT_TRUE(h.mem->quiescent());
}

TEST(MemorySystem, MergedLoadsShareOneTransaction)
{
    Harness h(2);
    h.backing.write64(0x4000, 5);
    h.backing.write64(0x4008, 6);
    h.runUntil(1);
    h.mem->access(0, AccessKind::Load, 0x4000, 0, 1);
    h.mem->access(0, AccessKind::Load, 0x4008, 0, 2); // same line: merge
    h.runUntil(500);
    EXPECT_EQ(h.mem->stats().counterValue("mshr_merges"), 1u);
    EXPECT_EQ(h.mem->stats().counterValue("bus_gets"), 1u);
    ASSERT_NE(h.completionFor(1), nullptr);
    ASSERT_NE(h.completionFor(2), nullptr);
    EXPECT_EQ(h.completionFor(1)->value, 5u);
    EXPECT_EQ(h.completionFor(2)->value, 6u);
}

TEST(MemorySystem, StoreMergedIntoLoadMissReplaysAfterFill)
{
    Harness h(2);
    h.runUntil(1);
    h.mem->access(0, AccessKind::Load, 0x4000, 0, 1);
    h.mem->access(0, AccessKind::Store, 0x4008, 9, 2); // merges into GetS
    h.runUntil(2000);
    ASSERT_NE(h.completionFor(2), nullptr);
    EXPECT_EQ(h.backing.read64(0x4008), 9u);
    EXPECT_EQ(h.mem->l1State(0, 0x4000), MesiState::Modified);
    EXPECT_TRUE(h.mem->quiescent());
}

TEST(MemorySystem, UpgradeFromShared)
{
    Harness h(2);
    h.runUntil(1);
    h.mem->access(0, AccessKind::Load, 0x5000, 0, 1);
    h.mem->access(1, AccessKind::Load, 0x5000, 0, 2);
    h.runUntil(800);
    ASSERT_EQ(h.mem->l1State(0, 0x5000), MesiState::Shared);
    h.mem->access(0, AccessKind::Store, 0x5000, 3, 3);
    h.runUntil(1200);
    EXPECT_EQ(h.mem->stats().counterValue("bus_upgrades"), 1u);
    EXPECT_EQ(h.mem->l1State(0, 0x5000), MesiState::Modified);
    EXPECT_EQ(h.mem->l1State(1, 0x5000), MesiState::Invalid);
}

TEST(MemorySystem, AtomicFaddReturnsOldValueAtomically)
{
    Harness h(2);
    h.backing.write64(0x6000, 10);
    h.runUntil(1);
    h.mem->access(0, AccessKind::Fadd, 0x6000, 5, 1);
    h.mem->access(1, AccessKind::Fadd, 0x6000, 7, 2);
    h.runUntil(2000);
    // Both RMWs applied exactly once: 10 + 5 + 7.
    EXPECT_EQ(h.backing.read64(0x6000), 22u);
    const Completion *c1 = h.completionFor(1);
    const Completion *c2 = h.completionFor(2);
    ASSERT_NE(c1, nullptr);
    ASSERT_NE(c2, nullptr);
    // One of them saw 10, the other 15 or 17.
    EXPECT_TRUE((c1->value == 10 && c2->value == 15) ||
                (c2->value == 10 && c1->value == 17));
}

TEST(MemorySystem, XchgSwapsValue)
{
    Harness h(1);
    h.backing.write64(0x6000, 3);
    h.runUntil(1);
    h.mem->access(0, AccessKind::Xchg, 0x6000, 9, 1);
    h.runUntil(500);
    EXPECT_EQ(h.completionFor(1)->value, 3u);
    EXPECT_EQ(h.backing.read64(0x6000), 9u);
}

TEST(MemorySystem, CacheToCacheTransferCounted)
{
    Harness h(2);
    h.runUntil(1);
    h.mem->access(0, AccessKind::Store, 0x7000, 1, 1);
    h.runUntil(400);
    h.mem->access(1, AccessKind::Load, 0x7000, 0, 2);
    h.runUntil(800);
    EXPECT_EQ(h.mem->stats().counterValue("c2c_transfers"), 1u);
}

TEST(MemorySystem, CapacityEvictionWritesBackDirtyLine)
{
    Harness h(1);
    h.runUntil(1);
    // L1: 4-way, 512 sets. Fill one set with 5 dirty lines.
    const Addr set_stride = 512 * 32;
    std::uint64_t tag = 1;
    for (int i = 0; i < 5; ++i) {
        h.mem->access(0, AccessKind::Store, 0x10000 + i * set_stride,
                      i + 1, tag++);
        h.runUntil(h.now + 400);
    }
    EXPECT_GE(h.mem->stats().counterValue("l1_evictions"), 1u);
    EXPECT_GE(h.mem->stats().counterValue("bus_putm"), 1u);
    EXPECT_GE(h.evictions.size(), 1u);
    // Values survive eviction (BackingStore is the value authority).
    EXPECT_EQ(h.backing.read64(0x10000), 1u);
}

TEST(MemorySystem, PerformCarriesLoadAndStoreValues)
{
    Harness h(1);
    h.backing.write64(0x8000, 40);
    h.runUntil(1);
    h.mem->access(0, AccessKind::Fadd, 0x8000, 2, 1);
    h.runUntil(500);
    ASSERT_EQ(h.performs.size(), 1u);
    EXPECT_EQ(h.performs[0].loadValue, 40u);
    EXPECT_EQ(h.performs[0].storeValue, 42u);
    EXPECT_EQ(h.performs[0].kind, AccessKind::Fadd);
}

TEST(MemorySystem, CanAcceptHonorsMshrMerge)
{
    Harness h(1);
    h.runUntil(1);
    EXPECT_TRUE(h.mem->canAccept(0, 0x9000));
    h.mem->access(0, AccessKind::Load, 0x9000, 0, 1);
    // Same line merges regardless of free MSHRs.
    EXPECT_TRUE(h.mem->canAccept(0, 0x9008));
}

TEST(MemorySystem, QuiescentAfterDrain)
{
    Harness h(2);
    h.runUntil(1);
    EXPECT_TRUE(h.mem->quiescent());
    h.mem->access(0, AccessKind::Load, 0xa000, 0, 1);
    EXPECT_FALSE(h.mem->quiescent());
    h.runUntil(1000);
    EXPECT_TRUE(h.mem->quiescent());
}

} // namespace
