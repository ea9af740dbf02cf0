#include <gtest/gtest.h>

#include "mem/backing_store.hh"

namespace
{

using rr::mem::BackingStore;

TEST(BackingStore, UnwrittenReadsZeroWithoutAllocating)
{
    BackingStore m;
    EXPECT_EQ(m.read64(0xdeadbeef00), 0u);
    EXPECT_EQ(m.numPages(), 0u);
}

TEST(BackingStore, WriteReadRoundTrip)
{
    BackingStore m;
    m.write64(0x1000, 42);
    EXPECT_EQ(m.read64(0x1000), 42u);
    EXPECT_EQ(m.numPages(), 1u);
}

TEST(BackingStore, UnalignedAddressesSnapToWords)
{
    BackingStore m;
    m.write64(0x1007, 7);
    EXPECT_EQ(m.read64(0x1000), 7u);
    EXPECT_EQ(m.read64(0x1001), 7u);
}

TEST(BackingStore, DistantAddressesAreSparse)
{
    BackingStore m;
    m.write64(0x0, 1);
    m.write64(1ULL << 40, 2);
    EXPECT_EQ(m.numPages(), 2u);
    EXPECT_EQ(m.read64(0x0), 1u);
    EXPECT_EQ(m.read64(1ULL << 40), 2u);
}

TEST(BackingStore, FingerprintDetectsDifferences)
{
    BackingStore a, b;
    a.write64(0x1000, 1);
    b.write64(0x1000, 1);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    b.write64(0x2000, 5);
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(BackingStore, FingerprintIsOrderIndependent)
{
    BackingStore a, b;
    a.write64(0x1000, 1);
    a.write64(0x9000, 2);
    b.write64(0x9000, 2);
    b.write64(0x1000, 1);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(BackingStore, FingerprintIgnoresExplicitZeros)
{
    // Writing zero is indistinguishable from never writing: keeps the
    // fingerprint stable across "touched but zero" pages.
    BackingStore a, b;
    a.write64(0x1000, 0);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(BackingStore, CloneIsIndependent)
{
    BackingStore a;
    a.write64(0x1000, 3);
    BackingStore b = a.clone();
    b.write64(0x1000, 4);
    EXPECT_EQ(a.read64(0x1000), 3u);
    EXPECT_EQ(b.read64(0x1000), 4u);
}

TEST(BackingStore, AbsentPagesReadZeroAndFindReturnsNull)
{
    BackingStore m;
    EXPECT_EQ(m.findPage(7), nullptr);
    EXPECT_EQ(m.read64(7 * BackingStore::kPageBytes), 0u);

    std::uint64_t *page = m.createPage(7);
    ASSERT_NE(page, nullptr);
    EXPECT_EQ(m.findPage(7), page);
    EXPECT_EQ(m.createPage(7), page);
    for (std::size_t w = 0; w < BackingStore::kWordsPerPage; ++w)
        EXPECT_EQ(page[w], 0u) << "word " << w;
    page[1] = 5;
    EXPECT_EQ(m.read64(7 * BackingStore::kPageBytes + 8), 5u);
}

TEST(BackingStore, PagePointersAreStableAcrossInserts)
{
    BackingStore m;
    std::uint64_t *first = m.createPage(0);
    first[0] = 42;
    // Enough new pages to make the page table rehash several times.
    for (std::uint64_t p = 1; p < 2000; ++p)
        m.createPage(p);
    EXPECT_EQ(m.findPage(0), first);
    EXPECT_EQ(first[0], 42u);
    EXPECT_EQ(m.read64(0), 42u);
}

} // namespace
