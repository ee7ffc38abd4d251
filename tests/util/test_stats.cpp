#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace swarmavail {
namespace {

TEST(StreamingStats, EmptyDefaults) {
    StreamingStats stats;
    EXPECT_EQ(stats.count(), 0u);
    EXPECT_EQ(stats.mean(), 0.0);
    EXPECT_EQ(stats.variance(), 0.0);
    EXPECT_EQ(stats.ci95_halfwidth(), 0.0);
}

TEST(StreamingStats, KnownMoments) {
    StreamingStats stats;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
        stats.add(x);
    }
    EXPECT_EQ(stats.count(), 8u);
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
    // Sample variance with n-1 = 32/7.
    EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(stats.min(), 2.0);
    EXPECT_DOUBLE_EQ(stats.max(), 9.0);
    EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(StreamingStats, SingleValue) {
    StreamingStats stats;
    stats.add(3.0);
    EXPECT_DOUBLE_EQ(stats.mean(), 3.0);
    EXPECT_EQ(stats.variance(), 0.0);
    EXPECT_DOUBLE_EQ(stats.min(), 3.0);
    EXPECT_DOUBLE_EQ(stats.max(), 3.0);
}

TEST(StreamingStats, MergeMatchesCombinedStream) {
    StreamingStats left;
    StreamingStats right;
    StreamingStats all;
    for (int i = 0; i < 50; ++i) {
        const double x = std::sin(i) * 10.0;
        (i % 2 == 0 ? left : right).add(x);
        all.add(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), all.count());
    EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(left.min(), all.min());
    EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(StreamingStats, MergeWithEmptyIsNoOp) {
    StreamingStats stats;
    stats.add(1.0);
    stats.add(2.0);
    StreamingStats empty;
    stats.merge(empty);
    EXPECT_EQ(stats.count(), 2u);
    EXPECT_DOUBLE_EQ(stats.mean(), 1.5);
    empty.merge(stats);
    EXPECT_EQ(empty.count(), 2u);
    EXPECT_DOUBLE_EQ(empty.mean(), 1.5);
}

TEST(StreamingStats, PairwiseMergePinsCiAgainstSingleStream) {
    // Chan et al. pairwise merging across four chunks must reproduce the
    // single-stream mean/variance/CI: this is what lets Gauge::merge fold
    // per-replication registries.
    StreamingStats all;
    StreamingStats chunks[4];
    for (int i = 0; i < 200; ++i) {
        const double x = std::cos(i) * 3.0 + 0.01 * i;
        chunks[i % 4].add(x);
        all.add(x);
    }
    chunks[0].merge(chunks[1]);
    chunks[2].merge(chunks[3]);
    chunks[0].merge(chunks[2]);
    EXPECT_EQ(chunks[0].count(), all.count());
    EXPECT_NEAR(chunks[0].mean(), all.mean(), 1e-12);
    EXPECT_NEAR(chunks[0].variance(), all.variance(), 1e-9);
    EXPECT_NEAR(chunks[0].std_error(), all.std_error(), 1e-12);
    EXPECT_NEAR(chunks[0].ci95_halfwidth(), all.ci95_halfwidth(), 1e-12);
    EXPECT_NEAR(chunks[0].sum(), all.sum(), 1e-9);
}

TEST(SampleSet, AddInvalidatesCachedQuantiles) {
    SampleSet set{{1.0, 2.0, 3.0}};
    EXPECT_DOUBLE_EQ(set.median(), 2.0);  // forces the sorted cache
    set.add(100.0);
    EXPECT_DOUBLE_EQ(set.median(), 2.5);
    EXPECT_DOUBLE_EQ(set.max(), 100.0);
}

TEST(SampleSet, QuantilesInterpolate) {
    SampleSet set;
    set.add_all({1.0, 2.0, 3.0, 4.0, 5.0});
    EXPECT_DOUBLE_EQ(set.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(set.quantile(0.5), 3.0);
    EXPECT_DOUBLE_EQ(set.quantile(1.0), 5.0);
    EXPECT_DOUBLE_EQ(set.quantile(0.25), 2.0);
    EXPECT_DOUBLE_EQ(set.quantile(0.125), 1.5);
}

TEST(SampleSet, MedianOfSingle) {
    SampleSet set;
    set.add(42.0);
    EXPECT_DOUBLE_EQ(set.median(), 42.0);
}

TEST(SampleSet, StatsAfterIncrementalAdds) {
    SampleSet set;
    set.add(10.0);
    EXPECT_DOUBLE_EQ(set.median(), 10.0);
    set.add(20.0);
    set.add(30.0);
    // Quantile cache must refresh after later adds.
    EXPECT_DOUBLE_EQ(set.median(), 20.0);
    EXPECT_DOUBLE_EQ(set.mean(), 20.0);
    EXPECT_DOUBLE_EQ(set.min(), 10.0);
    EXPECT_DOUBLE_EQ(set.max(), 30.0);
}

TEST(SampleSet, EmptyThrows) {
    const SampleSet set;
    EXPECT_THROW((void)set.mean(), std::invalid_argument);
    EXPECT_THROW((void)set.quantile(0.5), std::invalid_argument);
    EXPECT_THROW((void)set.min(), std::invalid_argument);
}

TEST(SampleSet, QuantileRejectsOutOfRange) {
    SampleSet set;
    set.add(1.0);
    EXPECT_THROW((void)set.quantile(-0.1), std::invalid_argument);
    EXPECT_THROW((void)set.quantile(1.1), std::invalid_argument);
}

TEST(EmpiricalCdf, StepValues) {
    const EmpiricalCdf cdf{{1.0, 2.0, 3.0, 4.0}};
    EXPECT_DOUBLE_EQ(cdf(0.5), 0.0);
    EXPECT_DOUBLE_EQ(cdf(1.0), 0.25);
    EXPECT_DOUBLE_EQ(cdf(2.5), 0.5);
    EXPECT_DOUBLE_EQ(cdf(4.0), 1.0);
    EXPECT_DOUBLE_EQ(cdf(100.0), 1.0);
}

TEST(EmpiricalCdf, QuantileInverse) {
    const EmpiricalCdf cdf{{10.0, 20.0, 30.0, 40.0}};
    EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 30.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 40.0);
}

TEST(EmpiricalCdf, CurveIsMonotone) {
    const EmpiricalCdf cdf{{3.0, 1.0, 2.0, 5.0, 4.0}};
    const auto curve = cdf.curve(0.0, 6.0, 13);
    ASSERT_EQ(curve.size(), 13u);
    for (std::size_t i = 1; i < curve.size(); ++i) {
        EXPECT_GE(curve[i].second, curve[i - 1].second);
    }
    EXPECT_DOUBLE_EQ(curve.front().second, 0.0);
    EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST(Histogram, BinAssignment) {
    Histogram hist{0.0, 10.0, 5};
    hist.add(0.5);   // bin 0
    hist.add(3.0);   // bin 1
    hist.add(9.99);  // bin 4
    EXPECT_EQ(hist.bin_count(0), 1u);
    EXPECT_EQ(hist.bin_count(1), 1u);
    EXPECT_EQ(hist.bin_count(4), 1u);
    EXPECT_EQ(hist.total(), 3u);
    EXPECT_DOUBLE_EQ(hist.bin_lo(1), 2.0);
    EXPECT_DOUBLE_EQ(hist.bin_hi(1), 4.0);
}

TEST(Histogram, OutOfRangeClampsToEdgeBins) {
    Histogram hist{0.0, 10.0, 5};
    hist.add(-100.0);
    hist.add(1e9);
    EXPECT_EQ(hist.bin_count(0), 1u);
    EXPECT_EQ(hist.bin_count(4), 1u);
}

TEST(Histogram, FractionsSumToOne) {
    Histogram hist{0.0, 1.0, 4};
    for (int i = 0; i < 100; ++i) {
        hist.add(i / 100.0);
    }
    double total = 0.0;
    for (std::size_t b = 0; b < hist.bins(); ++b) {
        total += hist.bin_fraction(b);
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Histogram, RejectsInvalidConstruction) {
    EXPECT_THROW((Histogram{0.0, 1.0, 0}), std::invalid_argument);
    EXPECT_THROW((Histogram{1.0, 1.0, 3}), std::invalid_argument);
}

}  // namespace
}  // namespace swarmavail
