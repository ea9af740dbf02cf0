#include <gtest/gtest.h>

#include <string>

#include "mem/backing_store.hh"

namespace
{

using rr::isa::Program;
using rr::mem::BackingStore;
using rr::mem::StoreOutsideImage;

constexpr std::uint64_t kBytes = Program::kDefaultMemoryBytes;

TEST(BackingStore, UnwrittenReadsZeroWithoutAllocating)
{
    BackingStore m(kBytes);
    EXPECT_EQ(m.read64(0x1000), 0u);
    EXPECT_EQ(m.read64(0xdeadbeef00), 0u);
    EXPECT_EQ(m.bytes(), kBytes);
}

TEST(BackingStore, WriteReadRoundTrip)
{
    BackingStore m(kBytes);
    m.write64(0x1000, 42);
    EXPECT_EQ(m.read64(0x1000), 42u);
}

TEST(BackingStore, UnalignedAddressesSnapToWords)
{
    BackingStore m(kBytes);
    m.write64(0x1007, 7);
    EXPECT_EQ(m.read64(0x1000), 7u);
    EXPECT_EQ(m.read64(0x1001), 7u);
}

TEST(BackingStore, DefaultImageIsEmpty)
{
    BackingStore m;
    EXPECT_EQ(m.bytes(), 0u);
    EXPECT_EQ(m.read64(0), 0u);
    EXPECT_EQ(m.fingerprint(), 0u);
    EXPECT_THROW(m.write64(0, 1), StoreOutsideImage);
}

TEST(BackingStore, SizeRoundsUpToWholeWords)
{
    BackingStore m(13);
    EXPECT_EQ(m.bytes(), 16u);
    m.write64(8, 3);
    EXPECT_EQ(m.read64(8), 3u);
    EXPECT_THROW(m.write64(16, 1), StoreOutsideImage);
}

TEST(BackingStore, ReadOutsideTheImageReturnsZero)
{
    BackingStore m(4096);
    m.write64(4088, 5);
    EXPECT_EQ(m.read64(4088), 5u);
    EXPECT_EQ(m.read64(4096), 0u);
    EXPECT_EQ(m.read64(std::uint64_t{1} << 40), 0u);
    EXPECT_EQ(m.read64(~std::uint64_t{0}), 0u);
}

TEST(BackingStore, StoreOutsideTheImageThrowsTypedAndChangesNothing)
{
    BackingStore m(4096);
    m.write64(0, 9);
    const std::uint64_t before = m.fingerprint();
    try {
        m.write64((std::uint64_t{1} << 40) + 3, 1);
        FAIL() << "expected StoreOutsideImage";
    } catch (const StoreOutsideImage &e) {
        EXPECT_EQ(e.addr(), std::uint64_t{1} << 40);
        EXPECT_EQ(e.imageBytes(), 4096u);
        EXPECT_EQ(std::string(e.what()),
                  "store to 0x10000000000, outside the 4096-byte memory "
                  "image");
    }
    EXPECT_THROW(m.write64(4096, 1), StoreOutsideImage);
    EXPECT_EQ(m.bytes(), 4096u);
    EXPECT_EQ(m.fingerprint(), before);
}

TEST(BackingStore, ProgramSizesAndFillsTheImage)
{
    Program p;
    p.memoryBytes = 0x2000;
    p.initialData = {{0x1000, 11}, {0x1ff8, 12}};
    const BackingStore m(p);
    EXPECT_EQ(m.bytes(), 0x2000u);
    EXPECT_EQ(m.peek(0x1000), 11u);
    EXPECT_EQ(m.peek(0x1ff8), 12u);
    EXPECT_EQ(m.peek(0x1008), 0u);
    EXPECT_EQ(BackingStore(Program{}).bytes(), kBytes);
}

TEST(BackingStore, FingerprintDetectsDifferences)
{
    BackingStore a(kBytes), b(kBytes);
    a.write64(0x1000, 1);
    b.write64(0x1000, 1);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    b.write64(0x2000, 5);
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(BackingStore, FingerprintIsOrderIndependent)
{
    BackingStore a(kBytes), b(kBytes);
    a.write64(0x1000, 1);
    a.write64(0x9000, 2);
    b.write64(0x9000, 2);
    b.write64(0x1000, 1);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(BackingStore, FingerprintIgnoresExplicitZeros)
{
    // Writing zero is indistinguishable from never writing, and the
    // image's size does not enter the fingerprint.
    BackingStore a(kBytes), b(kBytes), c(64);
    a.write64(0x1000, 0);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    EXPECT_EQ(a.fingerprint(), c.fingerprint());
}

TEST(BackingStore, FingerprintOfAFixedWriteSetIsPinned)
{
    // Recordings carry a fingerprint that replays by later versions
    // are compared with, so the value of one write set is fixed.
    BackingStore m(kBytes);
    m.write64(0x0, 1);
    m.write64(0x1000, 42);
    m.write64(0x1008, 0xdeadbeef);
    m.write64(0x40000, 7);
    m.write64(0xffff8, ~std::uint64_t{0});
    EXPECT_EQ(m.fingerprint(), 0x4023eb46ac0273e5ULL);
}

TEST(BackingStore, CloneIsIndependent)
{
    BackingStore a(kBytes);
    a.write64(0x1000, 3);
    BackingStore b = a.clone();
    b.write64(0x1000, 4);
    EXPECT_EQ(a.read64(0x1000), 3u);
    EXPECT_EQ(b.read64(0x1000), 4u);
}

} // namespace
