/**
 * @file
 * Property tests of the memory system under randomized traffic. The
 * central invariant: applying all PerformEvents to a fresh memory
 * image in stamp order reproduces the final BackingStore exactly —
 * i.e. the stamps really are a linearization (write atomicity), which
 * is the property RelaxReplay's correctness rests on (Observation 1).
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "mem/backing_store.hh"
#include "mem/memory_system.hh"
#include "sim/rng.hh"

namespace
{

using namespace rr::mem;
using rr::sim::Addr;
using rr::sim::CoreId;
using rr::sim::Cycle;
using rr::sim::MachineConfig;

/** Collects performs/completions and drives randomized traffic. */
class Fuzzer : public MemClient, public MemoryObserver
{
  public:
    Fuzzer(std::uint32_t cores, std::uint64_t seed, std::uint32_t lines)
        : rng(seed), numLines(lines)
    {
        cfg.numCores = cores;
        mem = createMemorySystem(cfg, backing, clock);
        for (CoreId c = 0; c < cores; ++c)
            mem->setClient(c, this);
        mem->addObserver(this);
        inflight.resize(cores, 0);
    }

    void
    memCompleted(std::uint64_t tag, AccessKind, std::uint64_t,
                 Cycle) override
    {
        const CoreId core = static_cast<CoreId>(tag >> 32);
        --inflight.at(core);
        ++completions;
    }

    void onPerform(const PerformEvent &ev) override
    {
        performs.push_back(ev);
    }

    /** Issue random traffic for @p cycles, then drain. */
    void
    run(Cycle cycles)
    {
        Cycle now = 0;
        for (; now < cycles; ++now) {
            mem->tick(now);
            for (CoreId c = 0; c < cfg.numCores; ++c) {
                if (inflight[c] >= 4 || !rng.chance(1, 2))
                    continue;
                // Random word in a small line pool: heavy conflicts.
                const Addr word =
                    0x10000 + rng.below(numLines) * 32 +
                    rng.below(4) * 8;
                if (!mem->canAccept(c, word))
                    continue;
                const auto kind = static_cast<AccessKind>(rng.below(4));
                const std::uint64_t tag =
                    (static_cast<std::uint64_t>(c) << 32) | issued;
                mem->access(c, kind, word, rng.below(1000), tag);
                ++inflight[c];
                ++issued;
            }
        }
        // Drain.
        for (; !mem->quiescent(); ++now) {
            ASSERT_LT(now, cycles + 100000u) << "drain did not converge";
            mem->tick(now);
        }
    }

    MachineConfig cfg;
    BackingStore backing{rr::isa::Program::kDefaultMemoryBytes};
    StampClock clock;
    std::unique_ptr<MemorySystem> mem;
    rr::sim::Rng rng;
    std::uint32_t numLines;
    std::vector<int> inflight;
    std::vector<PerformEvent> performs;
    std::uint64_t issued = 0;
    std::uint64_t completions = 0;
};

class MemoryFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(MemoryFuzz, StampOrderIsALinearization)
{
    Fuzzer f(4, 7000 + GetParam(), 8);
    f.run(4000);
    ASSERT_EQ(f.completions, f.issued);
    ASSERT_EQ(f.performs.size(), f.issued);

    // Stamps are unique and were delivered in increasing order.
    for (std::size_t i = 1; i < f.performs.size(); ++i)
        ASSERT_GT(f.performs[i].stamp, f.performs[i - 1].stamp);

    // Replaying the perform events in stamp order onto a fresh image
    // must reproduce the final memory exactly.
    BackingStore replayed{rr::isa::Program::kDefaultMemoryBytes};
    for (const PerformEvent &ev : f.performs) {
        switch (ev.kind) {
          case AccessKind::Load:
            ASSERT_EQ(replayed.read64(ev.addr), ev.loadValue)
                << "load at stamp " << ev.stamp
                << " saw a value inconsistent with the linearization";
            break;
          case AccessKind::Store:
            replayed.write64(ev.addr, ev.storeValue);
            break;
          case AccessKind::Xchg:
          case AccessKind::Fadd:
            ASSERT_EQ(replayed.read64(ev.addr), ev.loadValue);
            replayed.write64(ev.addr, ev.storeValue);
            break;
        }
    }
    EXPECT_EQ(replayed.fingerprint(), f.backing.fingerprint());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoryFuzz, ::testing::Range(0, 8));

TEST(MemoryFuzz, MesiInvariantHoldsUnderTraffic)
{
    // At quiescence: if any core holds a line Modified or Exclusive,
    // no other core may hold it in any valid state.
    Fuzzer f(4, 99, 6);
    f.run(3000);
    for (std::uint32_t l = 0; l < 6; ++l) {
        const Addr line = 0x10000 + l * 32;
        int owners = 0, sharers = 0;
        for (CoreId c = 0; c < 4; ++c) {
            const MesiState s = f.mem->l1State(c, line);
            if (s == MesiState::Modified || s == MesiState::Exclusive)
                ++owners;
            else if (s == MesiState::Shared)
                ++sharers;
        }
        EXPECT_LE(owners, 1) << "line " << l;
        if (owners == 1) {
            EXPECT_EQ(sharers, 0) << "line " << l;
        }
    }
}

TEST(MemoryFuzz, RmwsNeverLoseUpdatesUnderContention)
{
    // All cores fetch-add the same word; the final value must equal
    // the sum of addends.
    MachineConfig cfg;
    cfg.numCores = 8;
    BackingStore backing{rr::isa::Program::kDefaultMemoryBytes};
    StampClock clock;
    SnoopyMemorySystem mem(cfg, backing, clock);
    struct Sink : MemClient
    {
        int outstanding = 0;
        void memCompleted(std::uint64_t, AccessKind, std::uint64_t,
                          Cycle) override
        {
            --outstanding;
        }
    };
    std::vector<Sink> sinks(8);
    for (CoreId c = 0; c < 8; ++c)
        mem.setClient(c, &sinks[c]);

    std::uint64_t expected = 0;
    std::uint64_t tag = 0;
    Cycle now = 0;
    for (int round = 0; round < 50; ++round) {
        for (CoreId c = 0; c < 8; ++c) {
            while (!mem.canAccept(c, 0x9000))
                mem.tick(now++);
            mem.access(c, AccessKind::Fadd, 0x9000, c + 1, tag++);
            ++sinks[c].outstanding;
            expected += c + 1;
        }
        for (int i = 0; i < 10; ++i)
            mem.tick(now++);
    }
    while (!mem.quiescent())
        mem.tick(now++);
    EXPECT_EQ(backing.read64(0x9000), expected);
}

} // namespace
