#include <gtest/gtest.h>

#include <sstream>

#include "sim/stats.hh"

namespace
{

using namespace rr::sim;

TEST(Counter, StartsAtZeroAndAccumulates)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 5;
    c++;
    EXPECT_EQ(c.value(), 7u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(ScalarStat, TracksMeanMinMax)
{
    ScalarStat s;
    EXPECT_EQ(s.mean(), 0.0);
    s.sample(2.0);
    s.sample(4.0);
    s.sample(9.0);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_EQ(s.count(), 3u);
}

TEST(ScalarStat, SingleSampleIsMinAndMax)
{
    ScalarStat s;
    s.sample(-3.5);
    EXPECT_DOUBLE_EQ(s.min(), -3.5);
    EXPECT_DOUBLE_EQ(s.max(), -3.5);
    EXPECT_DOUBLE_EQ(s.mean(), -3.5);
}

TEST(Histogram, BinsByWidth)
{
    Histogram h(10, 3); // bins [0,10) [10,20) [20,30) + overflow
    h.sample(0);
    h.sample(9);
    h.sample(10);
    h.sample(25);
    h.sample(1000); // overflow
    EXPECT_EQ(h.numBins(), 4u);
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(1), 1u);
    EXPECT_EQ(h.binCount(2), 1u);
    EXPECT_EQ(h.binCount(3), 1u);
    EXPECT_EQ(h.total(), 5u);
    EXPECT_DOUBLE_EQ(h.binFraction(0), 0.4);
}

TEST(Histogram, ExactBoundaryGoesToUpperBin)
{
    Histogram h(10, 5);
    h.sample(10);
    EXPECT_EQ(h.binCount(1), 1u);
    EXPECT_EQ(h.binCount(0), 0u);
}

TEST(StatSet, CounterValueForMissingNameIsZero)
{
    StatSet s("x");
    EXPECT_EQ(s.counterValue("nope"), 0u);
    s.counter("hits") += 3;
    EXPECT_EQ(s.counterValue("hits"), 3u);
}

TEST(StatSet, PrintIncludesNames)
{
    StatSet s("unit");
    s.counter("events") += 2;
    s.scalar("occ").sample(1.0);
    std::ostringstream os;
    s.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("unit.events 2"), std::string::npos);
    EXPECT_NE(out.find("unit.occ"), std::string::npos);
}

TEST(ScalarStat, MergeHandlesEmptyStreams)
{
    ScalarStat a;
    ScalarStat b;
    b.sample(3.0);
    b.sample(-1.0);

    a.merge(b); // empty += non-empty: copies
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.min(), -1.0);
    EXPECT_DOUBLE_EQ(a.max(), 3.0);

    ScalarStat empty;
    a.merge(empty); // non-empty += empty: unchanged
    EXPECT_EQ(a.count(), 2u);

    ScalarStat c;
    c.sample(10.0);
    a.merge(c);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.min(), -1.0);
    EXPECT_DOUBLE_EQ(a.max(), 10.0);
    EXPECT_DOUBLE_EQ(a.sum(), 12.0);
}

TEST(StatSet, HistogramIsGetOrCreate)
{
    StatSet s("unit");
    Histogram &h = s.histogram("occ", 5, 4);
    h.sample(7);
    // Shape arguments only apply on creation.
    Histogram &again = s.histogram("occ", 999, 1);
    EXPECT_EQ(&h, &again);
    EXPECT_EQ(again.binWidth(), 5u);
    EXPECT_EQ(again.binCount(1), 1u);
}

TEST(StatSet, PrintIncludesHistograms)
{
    StatSet s("unit");
    s.histogram("occ", 10, 3).sample(15);
    s.histogram("occ").sample(1000); // overflow bucket
    std::ostringstream os;
    s.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("unit.occ histogram n=2 width=10"),
              std::string::npos);
    EXPECT_NE(out.find("[10]=1"), std::string::npos);
    EXPECT_NE(out.find("[30+]=1"), std::string::npos);
}

TEST(StatSet, MergeFromCombinesAllKinds)
{
    StatSet a("a");
    a.counter("hits") += 2;
    a.scalar("occ").sample(1.0);
    a.histogram("dist", 10, 2).sample(5);

    StatSet b("b");
    b.counter("hits") += 3;
    b.counter("misses") += 1;
    b.scalar("occ").sample(9.0);
    b.histogram("dist", 10, 2).sample(15);

    a.mergeFrom(b);
    EXPECT_EQ(a.counterValue("hits"), 5u);
    EXPECT_EQ(a.counterValue("misses"), 1u);
    EXPECT_EQ(a.scalars().at("occ").count(), 2u);
    EXPECT_DOUBLE_EQ(a.scalars().at("occ").max(), 9.0);
    EXPECT_EQ(a.histograms().at("dist").total(), 2u);
    EXPECT_EQ(a.histograms().at("dist").binCount(1), 1u);
}

TEST(StatSet, JsonContainsEveryStatAndNullsEmptyScalars)
{
    StatSet s("unit");
    s.counter("events") += 7;
    s.scalar("occ").sample(2.5);
    s.scalar("never_sampled"); // registered but empty
    s.histogram("dist", 10, 2).sample(25);

    std::ostringstream os;
    s.toJson(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"name\":\"unit\""), std::string::npos);
    EXPECT_NE(out.find("\"events\":7"), std::string::npos);
    EXPECT_NE(out.find("\"count\":1"), std::string::npos);
    // Empty stream: mean/min/max are null, not a fake 0.
    EXPECT_NE(out.find("\"never_sampled\":{\"count\":0,\"sum\":0,"
                       "\"mean\":null,\"min\":null,\"max\":null}"),
              std::string::npos);
    EXPECT_NE(out.find("\"dist\":{\"bin_width\":10,\"total\":1,"
                       "\"bins\":[0,0,1]}"),
              std::string::npos);
}

TEST(WriteStatsJson, WrapsSetsInAnArray)
{
    StatSet a("a");
    a.counter("x") += 1;
    StatSet b("b");
    std::ostringstream os;
    writeStatsJson(os, {&a, &b});
    const std::string out = os.str();
    EXPECT_EQ(out.front(), '[');
    EXPECT_EQ(out.back(), ']');
    EXPECT_NE(out.find("\"name\":\"a\""), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"b\""), std::string::npos);
}

} // namespace
