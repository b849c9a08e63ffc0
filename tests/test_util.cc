/**
 * @file
 * Unit tests for the util library: RNG, math helpers, statistics and
 * table formatting.
 */

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "util/MathUtil.h"
#include "util/Random.h"
#include "util/Stats.h"
#include "util/Table.h"

namespace csr
{
namespace
{

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(Rng, NextBelowCoversAllValues)
{
    Rng rng(11);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 8000; ++i)
        ++seen[rng.nextBelow(8)];
    for (int v : seen)
        EXPECT_GT(v, 0);
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(3);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(5);
    double sum = 0;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.nextDouble();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(9);
    int hits = 0;
    for (int i = 0; i < 50000; ++i)
        hits += rng.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 50000.0, 0.3, 0.02);
}

TEST(Rng, GeometricMean)
{
    Rng rng(13);
    const double p = 0.25;
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.nextGeometric(p));
    // E[failures before success] = (1-p)/p = 3.
    EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, GeometricWithPOneIsZero)
{
    Rng rng(17);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.nextGeometric(1.0), 0u);
}

TEST(Rng, ForkedStreamsAreDecorrelated)
{
    Rng parent(21);
    Rng a = parent.fork(0);
    Rng b = parent.fork(1);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_EQ(same, 0);
}

TEST(HashMix64, StableAndSpreading)
{
    EXPECT_EQ(hashMix64(12345), hashMix64(12345));
    EXPECT_NE(hashMix64(1), hashMix64(2));
    // Consecutive inputs should differ in many bits.
    const std::uint64_t diff = hashMix64(100) ^ hashMix64(101);
    int bits = 0;
    for (int i = 0; i < 64; ++i)
        bits += (diff >> i) & 1;
    EXPECT_GT(bits, 16);
}

TEST(MathUtil, IsPow2)
{
    EXPECT_FALSE(isPow2(0));
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(2));
    EXPECT_FALSE(isPow2(3));
    EXPECT_TRUE(isPow2(1ull << 40));
    EXPECT_FALSE(isPow2((1ull << 40) + 1));
}

TEST(MathUtil, FloorCeilLog2)
{
    EXPECT_EQ(floorLog2(1), 0);
    EXPECT_EQ(floorLog2(2), 1);
    EXPECT_EQ(floorLog2(3), 1);
    EXPECT_EQ(floorLog2(64), 6);
    EXPECT_EQ(ceilLog2(1), 0);
    EXPECT_EQ(ceilLog2(2), 1);
    EXPECT_EQ(ceilLog2(3), 2);
    EXPECT_EQ(ceilLog2(64), 6);
    EXPECT_EQ(ceilLog2(65), 7);
}

TEST(MathUtil, Align)
{
    EXPECT_EQ(alignDown(127, 64), 64u);
    EXPECT_EQ(alignDown(128, 64), 128u);
    EXPECT_EQ(alignUp(127, 64), 128u);
    EXPECT_EQ(alignUp(128, 64), 128u);
    EXPECT_EQ(divCeil(10, 3), 4u);
    EXPECT_EQ(divCeil(9, 3), 3u);
}

TEST(RunningStat, MeanAndVariance)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 4.0, 1e-12); // classic example set
    EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, MergeMatchesSequential)
{
    RunningStat all, a, b;
    Rng rng(33);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.nextDouble() * 10;
        all.add(x);
        (i % 2 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(RunningStat, MergeWithEmptyIsIdentity)
{
    RunningStat stat, empty;
    stat.add(1.0);
    stat.add(3.0);

    stat.merge(empty); // merging an empty accumulator changes nothing
    EXPECT_EQ(stat.count(), 2u);
    EXPECT_EQ(stat.mean(), 2.0);
    EXPECT_EQ(stat.min(), 1.0);
    EXPECT_EQ(stat.max(), 3.0);

    empty.merge(stat); // merging *into* an empty one copies
    EXPECT_EQ(empty.count(), 2u);
    EXPECT_EQ(empty.mean(), 2.0);
    EXPECT_EQ(empty.min(), 1.0);
    EXPECT_EQ(empty.max(), 3.0);

    RunningStat both_empty, other_empty;
    both_empty.merge(other_empty);
    EXPECT_EQ(both_empty.count(), 0u);
    EXPECT_EQ(both_empty.mean(), 0.0);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.sum(), 0.0);
}

TEST(Histogram, BucketsAreExactBelow128AndFineAbove)
{
    std::vector<std::uint64_t> values;
    for (std::uint64_t v = 0; v < 300; ++v)
        values.push_back(v);
    for (unsigned e = 7; e < 63; ++e)
        for (std::uint64_t v : {(std::uint64_t{1} << e) - 1,
                                std::uint64_t{1} << e,
                                (std::uint64_t{1} << e) + 12345})
            values.push_back(v);
    for (const std::uint64_t v : values) {
        Histogram h;
        h.add(v);
        const std::size_t i = h.numBuckets() - 1;
        ASSERT_EQ(h.bucketCount(i), 1u) << v;
        const std::uint64_t lo = Histogram::bucketLo(i);
        const std::uint64_t next = Histogram::bucketLo(i + 1);
        EXPECT_LE(lo, v);
        EXPECT_LT(v, next);
        if (v < 128)
            EXPECT_EQ(next - lo, 1u) << v;
        else
            EXPECT_LE(next - lo, lo / 64) << v;
    }
}

TEST(Histogram, Percentile)
{
    Histogram h;
    for (std::uint64_t v = 1; v <= 100; ++v)
        h.add(v);
    EXPECT_EQ(h.percentile(0.5), 50.0);
    EXPECT_EQ(h.percentile(0.9), 90.0);
    EXPECT_EQ(h.totalCount(), 100u);
}

TEST(Histogram, PercentileOfEmptyHistogramIsLowerEdge)
{
    // The value range starts at 0, and so does an empty histogram.
    Histogram h;
    EXPECT_EQ(h.percentile(0.0), 0.0);
    EXPECT_EQ(h.percentile(0.5), 0.0);
    EXPECT_EQ(h.percentile(1.0), 0.0);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
}

TEST(Histogram, PercentileEndpoints)
{
    Histogram h;
    h.add(3005);
    h.add(6007);
    // p0 and p100 are the exact extremes, not bucket edges.
    EXPECT_EQ(h.percentile(0.0), 3005.0);
    EXPECT_EQ(h.percentile(1.0), 6007.0);
    // Out-of-range fractions clamp instead of misbehaving.
    EXPECT_EQ(h.percentile(-0.5), 3005.0);
    EXPECT_EQ(h.percentile(1.5), 6007.0);
}

TEST(Histogram, PercentileSingleSample)
{
    Histogram h;
    h.add(3517);
    for (double frac : {0.0, 0.25, 0.5, 1.0})
        EXPECT_EQ(h.percentile(frac), 3517.0);
}

/** Seeded samples log-uniform over [0, 2^40). */
std::vector<std::uint64_t>
logUniformSamples(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    std::vector<std::uint64_t> samples(n);
    for (auto &v : samples)
        v = static_cast<std::uint64_t>(
                std::exp2(40.0 * rng.nextDouble())) -
            1;
    return samples;
}

TEST(Histogram, PercentilesWithinOnePercentOfExactOrderStatistics)
{
    for (std::uint64_t seed : {1, 2, 3, 4}) {
        std::vector<std::uint64_t> samples =
            logUniformSamples(seed, 20'000);
        Histogram h;
        for (const std::uint64_t v : samples)
            h.add(v);
        std::sort(samples.begin(), samples.end());
        EXPECT_EQ(h.min(), samples.front());
        EXPECT_EQ(h.max(), samples.back());
        for (const double frac : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
            // Nearest rank: the ceil(frac * n)-th smallest sample.
            const auto rank = std::max<std::size_t>(
                1, static_cast<std::size_t>(std::ceil(
                       frac * static_cast<double>(samples.size()))));
            const auto exact =
                static_cast<double>(samples[rank - 1]);
            const double got = h.percentile(frac);
            if (frac == 0.0 || frac == 1.0)
                EXPECT_EQ(got, exact) << "seed " << seed << " p" << frac;
            else
                EXPECT_LE(std::abs(got - exact), 0.01 * exact)
                    << "seed " << seed << " p" << frac << " exact "
                    << exact << " got " << got;
        }
    }
}

TEST(Histogram, MergeEqualsHistogramOfConcatenatedSamples)
{
    const std::vector<std::uint64_t> a = logUniformSamples(7, 3000);
    // A narrower second half, so the two cover different buckets.
    std::vector<std::uint64_t> b = logUniformSamples(8, 5000);
    for (auto &v : b)
        v /= 4096;
    Histogram ha, hb, whole;
    for (const std::uint64_t v : a) {
        ha.add(v);
        whole.add(v);
    }
    for (const std::uint64_t v : b) {
        hb.add(v);
        whole.add(v);
    }
    // Merge into the shorter one, so merge() has to grow it.
    hb.merge(ha);
    ASSERT_EQ(hb.numBuckets(), whole.numBuckets());
    for (std::size_t i = 0; i < whole.numBuckets(); ++i)
        EXPECT_EQ(hb.bucketCount(i), whole.bucketCount(i)) << i;
    EXPECT_EQ(hb.totalCount(), whole.totalCount());
    EXPECT_EQ(hb.min(), whole.min());
    EXPECT_EQ(hb.max(), whole.max());
    for (const double frac : {0.0, 0.5, 0.9, 0.99, 1.0})
        EXPECT_EQ(hb.percentile(frac), whole.percentile(frac));

    // Merging an empty histogram changes nothing, either way round.
    Histogram empty;
    empty.merge(whole);
    EXPECT_EQ(empty.percentile(0.0), whole.percentile(0.0));
    EXPECT_EQ(empty.totalCount(), whole.totalCount());
    whole.merge(Histogram());
    EXPECT_EQ(whole.min(), hb.min());
}

TEST(StatGroup, IncrementAndRead)
{
    StatGroup g;
    EXPECT_EQ(g.get("x"), 0u);
    g.inc("x");
    g.inc("x", 4);
    g.inc("y.z");
    EXPECT_EQ(g.get("x"), 5u);
    EXPECT_EQ(g.get("y.z"), 1u);
    EXPECT_EQ(g.all().size(), 2u);
    g.reset();
    EXPECT_EQ(g.get("x"), 0u);
}

TEST(TextTable, AlignedOutputContainsCells)
{
    TextTable t("Demo");
    t.setHeader({"name", "value"});
    t.addRow({"alpha", TextTable::num(1.2345, 2)});
    t.addSeparator();
    t.addRow({"beta", TextTable::count(1234567)});
    std::ostringstream os;
    t.print(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("Demo"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("1.23"), std::string::npos);
    EXPECT_NE(s.find("1,234,567"), std::string::npos);
}

TEST(TextTable, CsvOutput)
{
    TextTable t;
    t.setHeader({"a", "b"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TextTable, NumFormatsNegativesAndPrecision)
{
    EXPECT_EQ(TextTable::num(-1.5, 2), "-1.50");
    EXPECT_EQ(TextTable::num(3.14159, 3), "3.142");
    EXPECT_EQ(TextTable::count(0), "0");
    EXPECT_EQ(TextTable::count(999), "999");
    EXPECT_EQ(TextTable::count(1000), "1,000");
}

} // namespace
} // namespace csr
