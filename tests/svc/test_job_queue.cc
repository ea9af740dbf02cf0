#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "svc/job_queue.hh"

namespace
{

using namespace rr::svc;
using Clock = std::chrono::steady_clock;

JobDesc
job(const std::string &tenant, const std::string &tag = "")
{
    JobDesc d;
    d.tenant = tenant;
    d.tag = tag;
    d.conn = 1;
    d.params.kind = JobKind::Stats;
    d.params.file = "x.rrlog";
    return d;
}

Clock::time_point
soon()
{
    return Clock::now() + std::chrono::milliseconds(200);
}

TEST(JobQueue, AdmitAssignsMonotonicIdsAndDepth)
{
    JobQueue q;
    const auto a = q.admit(job("t"));
    const auto b = q.admit(job("t"));
    ASSERT_TRUE(a.admitted);
    ASSERT_TRUE(b.admitted);
    EXPECT_LT(a.jobId, b.jobId);
    EXPECT_EQ(a.depth, 1u);
    EXPECT_EQ(b.depth, 2u);
    EXPECT_EQ(q.depth(), 2u);
    EXPECT_EQ(q.tenantDepth("t"), 2u);
    EXPECT_EQ(q.tenantDepth("other"), 0u);
}

TEST(JobQueue, CapacityRejectionIsTypedAndCounted)
{
    JobQueue::Options opts;
    opts.capacity = 3;
    JobQueue q(opts);
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(q.admit(job("t" + std::to_string(i))).admitted);
    const auto r = q.admit(job("t9"));
    EXPECT_FALSE(r.admitted);
    EXPECT_EQ(r.error, ErrorCode::QueueFull);
    EXPECT_EQ(q.counters().rejectedFull, 1u);
    EXPECT_EQ(q.counters().admitted, 3u);
    // Popping one frees a slot.
    ASSERT_TRUE(q.tryPop().has_value());
    EXPECT_TRUE(q.admit(job("t9")).admitted);
}

TEST(JobQueue, TenantQuotaRejectionIsTypedAndCounted)
{
    JobQueue::Options opts;
    opts.capacity = 100;
    opts.tenantQuota = 2;
    JobQueue q(opts);
    EXPECT_TRUE(q.admit(job("alice")).admitted);
    EXPECT_TRUE(q.admit(job("alice")).admitted);
    const auto r = q.admit(job("alice"));
    EXPECT_FALSE(r.admitted);
    EXPECT_EQ(r.error, ErrorCode::QuotaExceeded);
    // The quota is per tenant: bob still gets in.
    EXPECT_TRUE(q.admit(job("bob")).admitted);
    EXPECT_EQ(q.counters().rejectedQuota, 1u);
}

TEST(JobQueue, FifoWithinTenant)
{
    JobQueue q;
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 10; ++i)
        ids.push_back(q.admit(job("t")).jobId);
    for (std::uint64_t id : ids) {
        auto d = q.pop(soon());
        ASSERT_TRUE(d.has_value());
        EXPECT_EQ(d->id, id);
    }
    EXPECT_EQ(q.depth(), 0u);
}

TEST(JobQueue, SmoothWrrHonoursWeights)
{
    // alice weight 3, bob weight 1: over any window of picks with both
    // backlogged, alice gets ~3x bob's share, and never a long burst
    // (smooth WRR interleaves: A A B A repeating, not A A A B).
    JobQueue::Options opts;
    opts.capacity = 1000;
    opts.tenantQuota = 1000;
    JobQueue q(opts);
    for (int i = 0; i < 80; ++i) {
        q.admit(job("alice"), 3);
        q.admit(job("bob"), 1);
    }
    std::map<std::string, int> picked;
    std::string firstEight;
    for (int i = 0; i < 80; ++i) {
        auto d = q.tryPop();
        ASSERT_TRUE(d.has_value());
        ++picked[d->tenant];
        if (i < 8)
            firstEight += d->tenant == "alice" ? 'A' : 'B';
    }
    EXPECT_EQ(picked["alice"], 60);
    EXPECT_EQ(picked["bob"], 20);
    // Smooth interleaving, not bursts: the 4-pick cycle contains one B.
    EXPECT_EQ(firstEight, "AABAAABA");
}

TEST(JobQueue, WrrSkipsEmptyTenantsWithoutStarvation)
{
    JobQueue q;
    q.admit(job("heavy"), 100);
    q.admit(job("light"), 1);
    q.admit(job("heavy"), 100);
    // Even a weight-1 tenant gets served once the heavy backlog pauses.
    int lightSeen = 0;
    for (int i = 0; i < 3; ++i) {
        auto d = q.tryPop();
        ASSERT_TRUE(d.has_value());
        lightSeen += d->tenant == "light";
    }
    EXPECT_EQ(lightSeen, 1);
    EXPECT_FALSE(q.tryPop().has_value());
}

TEST(JobQueue, TenantEntriesAreErasedWhenTheirFifoEmpties)
{
    // Tenant names are client-chosen; a client cycling names must not
    // grow the tenant map without bound. An entry exists only while
    // its tenant has queued work.
    JobQueue q;
    for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(q.admit(job("tenant" + std::to_string(i))).admitted);
        ASSERT_TRUE(q.tryPop().has_value());
    }
    EXPECT_EQ(q.tenantCount(), 0u);

    // Every removal path erases emptied tenants.
    const auto a = q.admit(job("a"));
    const auto b = q.admit(job("b"));
    q.admit(job("c"));
    EXPECT_EQ(q.tenantCount(), 3u);
    ASSERT_TRUE(q.cancel(a.jobId).has_value());
    EXPECT_EQ(q.tenantCount(), 2u);
    ASSERT_TRUE(q.cancel(b.jobId).has_value());
    EXPECT_EQ(q.tenantCount(), 1u);
    EXPECT_EQ(q.drainAll().size(), 1u);
    EXPECT_EQ(q.tenantCount(), 0u);

    // A quota rejection of a brand-new tenant leaves no entry behind.
    JobQueue::Options opts;
    opts.tenantQuota = 0;
    JobQueue strict(opts);
    EXPECT_FALSE(strict.admit(job("ghost")).admitted);
    EXPECT_EQ(strict.tenantCount(), 0u);
}

TEST(JobQueue, CancelRemovesOnlyTheTargetJob)
{
    JobQueue q;
    const auto a = q.admit(job("t", "a"));
    const auto b = q.admit(job("t", "b"));
    const auto c = q.admit(job("t", "c"));
    auto cancelled = q.cancel(b.jobId);
    ASSERT_TRUE(cancelled.has_value());
    EXPECT_EQ(cancelled->tag, "b");
    EXPECT_FALSE(q.cancel(b.jobId).has_value()); // second time: gone
    EXPECT_FALSE(q.cancel(99999).has_value());
    EXPECT_EQ(q.pop(soon())->id, a.jobId);
    EXPECT_EQ(q.pop(soon())->id, c.jobId);
}

TEST(JobQueue, DrainAllEmptiesEveryTenant)
{
    JobQueue q;
    for (int i = 0; i < 5; ++i)
        q.admit(job("t" + std::to_string(i % 2)));
    const auto drained = q.drainAll();
    EXPECT_EQ(drained.size(), 5u);
    EXPECT_EQ(q.depth(), 0u);
    EXPECT_EQ(q.counters().cancelled, 5u);
}

TEST(JobQueue, CloseRefusesAdmissionButDrainsQueued)
{
    JobQueue q;
    const auto a = q.admit(job("t"));
    ASSERT_TRUE(a.admitted);
    q.close();
    EXPECT_TRUE(q.closed());
    const auto r = q.admit(job("t"));
    EXPECT_FALSE(r.admitted);
    EXPECT_EQ(r.error, ErrorCode::ShuttingDown);
    // The queued job survives close() — drain semantics.
    EXPECT_EQ(q.pop(soon())->id, a.jobId);
    EXPECT_FALSE(q.pop(Clock::now()).has_value());
}

TEST(JobQueue, PopTimesOutOnEmptyQueue)
{
    JobQueue q;
    const auto t0 = Clock::now();
    EXPECT_FALSE(
        q.pop(t0 + std::chrono::milliseconds(30)).has_value());
    EXPECT_GE(Clock::now() - t0, std::chrono::milliseconds(25));
}

TEST(JobQueue, PopWakesOnAdmitAndOnClose)
{
    JobQueue q;
    std::thread admitter([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        q.admit(job("t"));
    });
    auto d = q.pop(Clock::now() + std::chrono::seconds(5));
    admitter.join();
    ASSERT_TRUE(d.has_value());

    std::thread closer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        q.close();
    });
    const auto t0 = Clock::now();
    EXPECT_FALSE(
        q.pop(Clock::now() + std::chrono::seconds(30)).has_value());
    closer.join();
    EXPECT_LT(Clock::now() - t0, std::chrono::seconds(5));
}

TEST(JobQueue, ConcurrentAdmitAndPopLosesNothing)
{
    JobQueue::Options opts;
    opts.capacity = 100000;
    opts.tenantQuota = 100000;
    JobQueue q(opts);
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 500;
    std::atomic<int> popped{0};
    std::atomic<bool> done{false};
    std::thread consumer([&] {
        while (true) {
            auto d = q.pop(Clock::now() +
                           std::chrono::milliseconds(50));
            if (d) {
                ++popped;
            } else if (done.load() && q.depth() == 0) {
                break;
            }
        }
    });
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i)
                ASSERT_TRUE(
                    q.admit(job("tenant" + std::to_string(p))).admitted);
        });
    }
    for (auto &t : producers)
        t.join();
    done = true;
    consumer.join();
    EXPECT_EQ(popped.load(), kProducers * kPerProducer);
    EXPECT_EQ(q.counters().popped,
              static_cast<std::uint64_t>(kProducers) * kPerProducer);
}

TEST(JobQueue, DescriptorsStayDescriptorSized)
{
    // The memory-bound invariant: thousands of queued jobs are cheap
    // because JobDesc holds only strings and scalars. Guard against a
    // future field accidentally embedding a decoded log or buffer.
    EXPECT_LE(sizeof(JobDesc), 512u);
}

} // namespace
