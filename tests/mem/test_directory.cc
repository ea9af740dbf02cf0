/**
 * @file
 * Unit tests for the home-directory MESI backend (src/mem/directory.cc):
 * tracking-state transitions, targeted snoop delivery, the stale-state
 * paths left behind by silent evictions, the Section 4.3 bump on entry
 * destruction, back-invalidation races with dirty lines, and the banked
 * grant arbitration. A final stress test cross-checks the directory
 * against the snoopy backend on an identical access trace.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "mem/backing_store.hh"
#include "mem/directory.hh"
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
    std::uint64_t tag;
    AccessKind kind;
    std::uint64_t value;
    Cycle when;
};

/**
 * Like the snoopy harness in test_memory_system.cc, but constructs the
 * DirectoryMemorySystem directly so tests can assert on the tracking
 * state (dirOwner/dirSharers/dirHasEntry).
 */
class DirHarness : public MemClient, public MemoryObserver
{
  public:
    explicit DirHarness(std::uint32_t cores)
    {
        cfg.numCores = cores;
        cfg.coherence = rr::sim::CoherenceKind::Directory;
    }

    /** Call after any cfg overrides. */
    void
    build()
    {
        cfg.validate();
        dir = std::make_unique<DirectoryMemorySystem>(cfg, backing, clock);
        for (CoreId c = 0; c < cfg.numCores; ++c)
            dir->setClient(c, this);
        dir->addObserver(this);
    }

    void
    memCompleted(std::uint64_t tag, AccessKind kind, std::uint64_t value,
                 Cycle when) override
    {
        completions.push_back(Completion{tag, kind, value, when});
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

    void
    runUntil(Cycle until)
    {
        for (; now < until; ++now)
            dir->tick(now);
    }

    /** Run until the system quiesces (bounded; asserts on runaway). */
    void
    drain()
    {
        Cycle limit = now + 100000;
        while (!dir->quiescent()) {
            dir->tick(now++);
            ASSERT_LT(now, limit) << "memory system did not quiesce";
        }
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

    /** Snoops delivered to @p core for @p line after sequence point @p from. */
    std::size_t
    snoopsTo(CoreId core, Addr line, std::size_t from = 0) const
    {
        std::size_t n = 0;
        for (std::size_t i = from; i < snoops.size(); ++i) {
            if (snoops[i].first == core &&
                snoops[i].second.lineAddr == rr::sim::lineAddr(line))
                ++n;
        }
        return n;
    }

    MachineConfig cfg;
    BackingStore backing{rr::isa::Program::kDefaultMemoryBytes};
    StampClock clock;
    std::unique_ptr<DirectoryMemorySystem> dir;
    Cycle now = 0;
    std::vector<Completion> completions;
    std::vector<std::pair<CoreId, SnoopEvent>> snoops;
    std::vector<std::pair<CoreId, Addr>> evictions;
};

/** Stride between addresses that map to the same L1 set. */
Addr
l1SetStride(const MachineConfig &cfg)
{
    return static_cast<Addr>(cfg.l1.numSets()) * rr::sim::kLineBytes;
}

TEST(Directory, ColdLoadGrantsExclusiveAndSetsOwner)
{
    DirHarness h(4);
    h.build();
    h.backing.write64(0x1000, 42);
    h.runUntil(1);
    h.dir->access(0, AccessKind::Load, 0x1000, 0, 1);
    h.drain();

    const Completion *c = h.completionFor(1);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->value, 42u);
    EXPECT_EQ(h.dir->l1State(0, 0x1000), MesiState::Exclusive);
    ASSERT_TRUE(h.dir->dirHasEntry(0x1000));
    EXPECT_EQ(h.dir->dirOwner(0x1000), 0);
    EXPECT_EQ(h.dir->dirSharers(0x1000), 0u);
    EXPECT_EQ(h.dir->numBanks(), 4u);
}

TEST(Directory, ReadSharingDemotesOwnerToSharer)
{
    DirHarness h(4);
    h.build();
    h.runUntil(1);
    h.dir->access(0, AccessKind::Load, 0x1000, 0, 1);
    h.drain();
    const std::size_t mark = h.snoops.size();
    h.dir->access(1, AccessKind::Load, 0x1000, 0, 2);
    h.drain();

    EXPECT_EQ(h.dir->l1State(0, 0x1000), MesiState::Shared);
    EXPECT_EQ(h.dir->l1State(1, 0x1000), MesiState::Shared);
    EXPECT_EQ(h.dir->dirOwner(0x1000), -1);
    EXPECT_EQ(h.dir->dirSharers(0x1000), 0b0011u);
    // The ex-owner supplied the data and observed the GetS.
    ASSERT_EQ(h.snoopsTo(0, 0x1000, mark), 1u);
    EXPECT_TRUE(h.snoops.back().second.observerHadLine);
    EXPECT_FALSE(h.snoops.back().second.isWrite);
}

TEST(Directory, GetMInvalidatesExactlyListedCores)
{
    DirHarness h(4);
    h.build();
    h.runUntil(1);
    h.dir->access(0, AccessKind::Load, 0x1000, 0, 1);
    h.drain();
    h.dir->access(1, AccessKind::Load, 0x1000, 0, 2);
    h.drain();
    const std::size_t mark = h.snoops.size();
    h.dir->access(2, AccessKind::Store, 0x1000, 7, 3);
    h.drain();

    EXPECT_EQ(h.dir->l1State(0, 0x1000), MesiState::Invalid);
    EXPECT_EQ(h.dir->l1State(1, 0x1000), MesiState::Invalid);
    EXPECT_EQ(h.dir->l1State(2, 0x1000), MesiState::Modified);
    EXPECT_EQ(h.dir->dirOwner(0x1000), 2);
    EXPECT_EQ(h.dir->dirSharers(0x1000), 0u);
    // Exactly the two listed sharers were snooped; core 3 was not.
    EXPECT_EQ(h.snoopsTo(0, 0x1000, mark), 1u);
    EXPECT_EQ(h.snoopsTo(1, 0x1000, mark), 1u);
    EXPECT_EQ(h.snoopsTo(3, 0x1000, mark), 0u);
}

TEST(Directory, ColdMissBroadcastsButTrackedLineIsTargeted)
{
    DirHarness h(4);
    h.build();
    h.runUntil(1);
    // Cold line: no tracking state, so the request is broadcast (every
    // core but the requester sees it, none holding the line).
    h.dir->access(0, AccessKind::Load, 0x2000, 0, 1);
    h.drain();
    EXPECT_EQ(h.snoopsTo(1, 0x2000), 1u);
    EXPECT_EQ(h.snoopsTo(2, 0x2000), 1u);
    EXPECT_EQ(h.snoopsTo(3, 0x2000), 1u);
    for (const auto &[obs, ev] : h.snoops)
        EXPECT_FALSE(ev.observerHadLine);

    // Tracked line: the next transaction routes point-to-point.
    const std::size_t mark = h.snoops.size();
    h.dir->access(2, AccessKind::Store, 0x2000, 5, 2);
    h.drain();
    EXPECT_EQ(h.snoopsTo(0, 0x2000, mark), 1u); // the listed owner
    EXPECT_EQ(h.snoopsTo(1, 0x2000, mark), 0u);
    EXPECT_EQ(h.snoopsTo(3, 0x2000, mark), 0u);
}

TEST(Directory, SilentEvictionLeavesStaleOwnerServedByHome)
{
    DirHarness h(2);
    h.build();
    h.backing.write64(0x1000, 99);
    h.runUntil(1);
    h.dir->access(0, AccessKind::Load, 0x1000, 0, 1);
    h.drain();
    ASSERT_EQ(h.dir->dirOwner(0x1000), 0);

    // Fill core 0's L1 set until 0x1000 is silently evicted (clean/E
    // evictions notify nobody, so the directory keeps the stale owner).
    const Addr stride = l1SetStride(h.cfg);
    for (std::uint32_t k = 1; k <= h.cfg.l1.associativity; ++k) {
        h.dir->access(0, AccessKind::Load, 0x1000 + k * stride, 0, 10 + k);
        h.drain();
    }
    ASSERT_EQ(h.dir->l1State(0, 0x1000), MesiState::Invalid);
    ASSERT_EQ(h.dir->dirOwner(0x1000), 0) << "eviction must be silent";

    // A later reader is served by the home (stale-owner path) and still
    // gets the right data; the stale owner sees only a spurious snoop.
    const std::size_t mark = h.snoops.size();
    h.dir->access(1, AccessKind::Load, 0x1000, 0, 2);
    h.drain();
    const Completion *c = h.completionFor(2);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->value, 99u);
    EXPECT_EQ(h.dir->stats().counterValue("dir_stale_owner"), 1u);
    ASSERT_EQ(h.snoopsTo(0, 0x1000, mark), 1u);
    EXPECT_FALSE(h.snoops.back().second.observerHadLine);
    // The stale ex-owner stays listed as a sharer: conservative, and
    // required for the ordering markers of later transactions.
    EXPECT_EQ(h.dir->dirSharers(0x1000) & 1u, 1u);
}

TEST(Directory, DirtyEvictionPutMKeepsExOwnerListed)
{
    DirHarness h(2);
    h.build();
    h.runUntil(1);
    h.dir->access(0, AccessKind::Store, 0x1000, 0xbeef, 1);
    h.drain();
    ASSERT_EQ(h.dir->l1State(0, 0x1000), MesiState::Modified);
    ASSERT_EQ(h.dir->dirOwner(0x1000), 0);

    // Evict the dirty line from core 0's L1.
    const Addr stride = l1SetStride(h.cfg);
    for (std::uint32_t k = 1; k <= h.cfg.l1.associativity; ++k) {
        h.dir->access(0, AccessKind::Load, 0x1000 + k * stride, 0, 10 + k);
        h.drain();
    }
    ASSERT_EQ(h.dir->l1State(0, 0x1000), MesiState::Invalid);

    // The writeback emitted the Section 4.3 conservative bump...
    bool bumped = false;
    for (const auto &[core, line] : h.evictions)
        bumped = bumped ||
                 (core == 0 && line == rr::sim::lineAddr(Addr{0x1000}));
    EXPECT_TRUE(bumped);
    // ...and the PutM demoted the ex-owner to a *listed* sharer: bumps
    // fix the Opt counting, but only a routed ordering marker can give
    // a later reader its write->read dependency edge.
    EXPECT_EQ(h.dir->dirOwner(0x1000), -1);
    EXPECT_EQ(h.dir->dirSharers(0x1000) & 1u, 1u);

    // The ex-owner is therefore still snooped on the next GetS, and the
    // reader sees the written-back value.
    const std::size_t mark = h.snoops.size();
    h.dir->access(1, AccessKind::Load, 0x1000, 0, 2);
    h.drain();
    EXPECT_EQ(h.snoopsTo(0, 0x1000, mark), 1u);
    const Completion *c = h.completionFor(2);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->value, 0xbeefu);
}

/**
 * Shrink the shared L2 to one line per core so a second distinct line
 * forces an L2 eviction, destroying the victim's directory entry.
 */
class TinyL2Harness : public DirHarness
{
  public:
    explicit TinyL2Harness(std::uint32_t cores) : DirHarness(cores)
    {
        cfg.l2 = rr::sim::CacheConfig{rr::sim::kLineBytes, 1, 64, 12};
        build();
    }
};

TEST(Directory, L2EvictionDestroysEntryAndBumpsEveryListedCore)
{
    TinyL2Harness h(2);
    // Total L2: 2 lines, direct-mapped, 2 sets. 0x1000 and 0x1080 both
    // map to set 0, so the second install evicts the first.
    h.runUntil(1);
    h.dir->access(0, AccessKind::Load, 0x1000, 0, 1);
    h.drain();
    h.dir->access(1, AccessKind::Load, 0x1000, 0, 2);
    h.drain();
    ASSERT_EQ(h.dir->dirSharers(0x1000), 0b0011u);

    h.dir->access(0, AccessKind::Load, 0x1080, 0, 3);
    h.drain();

    // Entry destroyed: both listed cores lose snoop visibility and both
    // get the conservative bump (Section 4.3); inclusion back-
    // invalidates the L1 copies.
    EXPECT_FALSE(h.dir->dirHasEntry(0x1000));
    std::size_t bumps[2] = {0, 0};
    for (const auto &[core, line] : h.evictions) {
        if (line == rr::sim::lineAddr(Addr{0x1000}))
            ++bumps[core];
    }
    EXPECT_EQ(bumps[0], 1u);
    EXPECT_EQ(bumps[1], 1u);
    EXPECT_EQ(h.dir->l1State(0, 0x1000), MesiState::Invalid);
    EXPECT_EQ(h.dir->l1State(1, 0x1000), MesiState::Invalid);
}

TEST(Directory, BackInvalidationOfDirtyLineWritesBack)
{
    TinyL2Harness h(2);
    h.runUntil(1);
    h.dir->access(0, AccessKind::Store, 0x1000, 0x1234, 1);
    h.drain();
    ASSERT_EQ(h.dir->l1State(0, 0x1000), MesiState::Modified);

    // The race: a conflicting L2 install back-invalidates a line that is
    // dirty in a remote L1. The copy must reach memory, not vanish.
    h.dir->access(1, AccessKind::Load, 0x1080, 0, 2);
    h.drain();
    EXPECT_EQ(h.dir->l1State(0, 0x1000), MesiState::Invalid);
    EXPECT_FALSE(h.dir->dirHasEntry(0x1000));

    // Reload on a third path: value must be the dirty data.
    h.dir->access(1, AccessKind::Load, 0x1000, 0, 3);
    h.drain();
    const Completion *c = h.completionFor(3);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->value, 0x1234u);
}

TEST(Directory, BankedGrantsServeDistinctBanksInOneCycle)
{
    DirHarness h(2);
    h.build();
    ASSERT_EQ(h.dir->numBanks(), 2u);
    h.runUntil(1);
    // Lines 0x1000/32 = 128 (bank 0) and 0x1020/32 = 129 (bank 1):
    // distinct home banks, so both grants happen the same cycle and the
    // cold misses complete together.
    h.dir->access(0, AccessKind::Load, 0x1000, 0, 1);
    h.dir->access(1, AccessKind::Load, 0x1020, 0, 2);
    h.drain();
    const Completion *a = h.completionFor(1);
    const Completion *b = h.completionFor(2);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->when, b->when);
}

TEST(Directory, SameBankGrantsSerialize)
{
    DirHarness h(2);
    h.build();
    h.runUntil(1);
    // Lines 128 and 130 both hash to bank 0 of 2: one grant per bank
    // per cycle, so the second request completes strictly later.
    h.dir->access(0, AccessKind::Load, 0x1000, 0, 1);
    h.dir->access(1, AccessKind::Load, 0x1040, 0, 2);
    h.drain();
    const Completion *a = h.completionFor(1);
    const Completion *b = h.completionFor(2);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a->when, b->when);
}

/**
 * Cross-backend check: drive the snoopy and directory systems with the
 * same mixed access trace and require identical load values and final
 * memory. Addresses are chosen per-core-disjoint for writes (the
 * backends make no ordering promise for racing writes granted in
 * different orders) with a shared read-only region.
 */
TEST(Directory, MatchesSnoopyOnCommonTrace)
{
    constexpr std::uint32_t kCores = 4;
    constexpr int kOpsPerCore = 150;

    struct Op
    {
        CoreId core;
        AccessKind kind;
        Addr addr;
        std::uint64_t value;
    };
    std::vector<Op> trace;
    std::mt19937_64 rng(12345);
    for (int i = 0; i < kOpsPerCore * static_cast<int>(kCores); ++i) {
        Op op;
        op.core = static_cast<CoreId>(rng() % kCores);
        const bool shared = (rng() % 4) == 0;
        if (shared) {
            // Shared read-only region.
            op.kind = AccessKind::Load;
            op.addr = 0x8000 + (rng() % 16) * 8;
            op.value = 0;
        } else {
            op.kind = (rng() % 2) ? AccessKind::Store : AccessKind::Load;
            op.addr = 0x10000 + op.core * 0x1000 + (rng() % 64) * 8;
            op.value = rng();
        }
        trace.push_back(op);
    }

    // Loads are keyed by issue tag, not completion order: the backends'
    // different latencies legally interleave completions differently.
    auto run = [&](rr::sim::CoherenceKind kind,
                   std::vector<std::uint64_t> &loads) -> std::uint64_t {
        MachineConfig cfg;
        cfg.numCores = kCores;
        cfg.coherence = kind;
        BackingStore backing{rr::isa::Program::kDefaultMemoryBytes};
        for (int i = 0; i < 16; ++i)
            backing.write64(0x8000 + i * 8, 0xabc0 + i);
        StampClock clock;
        auto mem = createMemorySystem(cfg, backing, clock);

        struct Client : MemClient
        {
            std::vector<std::uint64_t> *sink = nullptr;
            void
            memCompleted(std::uint64_t tag, AccessKind kind,
                         std::uint64_t value, Cycle) override
            {
                if (kind != AccessKind::Load)
                    return;
                if (sink->size() <= tag)
                    sink->resize(tag + 1, ~std::uint64_t{0});
                (*sink)[tag] = value;
            }
        } client;
        client.sink = &loads;
        for (CoreId c = 0; c < kCores; ++c)
            mem->setClient(c, &client);

        Cycle now = 0;
        std::size_t next = 0;
        std::uint64_t tag = 1;
        while (next < trace.size() || !mem->quiescent()) {
            // One access per core per cycle, strictly in trace order per
            // core so both backends see the same per-core streams.
            if (next < trace.size()) {
                const Op &op = trace[next];
                if (mem->canAccept(op.core, op.addr)) {
                    mem->access(op.core, op.kind, op.addr, op.value,
                                tag++);
                    ++next;
                }
            }
            mem->tick(now++);
            if (now >= Cycle{10000000}) {
                ADD_FAILURE() << "trace did not drain";
                break;
            }
        }
        return backing.fingerprint();
    };

    std::vector<std::uint64_t> snoopyLoads, dirLoads;
    std::uint64_t snoopyFp = 0, dirFp = 0;
    {
        SCOPED_TRACE("snoopy");
        snoopyFp = run(rr::sim::CoherenceKind::Snoopy, snoopyLoads);
    }
    {
        SCOPED_TRACE("directory");
        dirFp = run(rr::sim::CoherenceKind::Directory, dirLoads);
    }
    EXPECT_EQ(snoopyFp, dirFp);
    ASSERT_EQ(snoopyLoads.size(), dirLoads.size());
    EXPECT_EQ(snoopyLoads, dirLoads);
}

} // namespace
