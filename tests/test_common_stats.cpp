// Unit tests for RunningStat, percentile, Histogram and discrete curvature.
#include <gtest/gtest.h>

#include <cmath>

#include "scgnn/common/error.hpp"
#include "scgnn/common/stats.hpp"

namespace scgnn {
namespace {

TEST(RunningStat, EmptyDefaults) {
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MeanAndVariance) {
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.sum(), 40.0, 1e-12);
}

TEST(RunningStat, SingleObservationHasZeroVariance) {
    RunningStat s;
    s.add(3.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStat, MergeEqualsSequential) {
    RunningStat whole, a, b;
    for (int i = 0; i < 50; ++i) {
        const double x = std::sin(i * 0.7) * 10;
        whole.add(x);
        (i < 20 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
    EXPECT_EQ(a.min(), whole.min());
    EXPECT_EQ(a.max(), whole.max());
}

TEST(RunningStat, MergeWithEmptyIsIdentity) {
    RunningStat a, empty;
    a.add(1.0);
    a.add(2.0);
    const double mean = a.mean();
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(a.mean(), mean);
}

TEST(Percentile, Median) {
    const std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
}

TEST(Percentile, Extremes) {
    const std::vector<double> v{5.0, 1.0, 3.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
}

TEST(Percentile, Interpolates) {
    const std::vector<double> v{0.0, 10.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.5);
}

TEST(Percentile, RejectsBadInput) {
    const std::vector<double> v{1.0};
    EXPECT_THROW((void)percentile({}, 0.5), Error);
    EXPECT_THROW((void)percentile(v, -0.1), Error);
    EXPECT_THROW((void)percentile(v, 1.1), Error);
}

TEST(Histogram, BinsAndEdges) {
    Histogram h(0.0, 10.0, 5);
    EXPECT_EQ(h.bins(), 5u);
    EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
    EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
    EXPECT_DOUBLE_EQ(h.bin_lo(4), 8.0);
}

TEST(Histogram, CountsLandInRightBins) {
    Histogram h(0.0, 10.0, 5);
    h.add(1.0);
    h.add(1.5);
    h.add(9.9);
    EXPECT_EQ(h.bin_count(0), 2u);
    EXPECT_EQ(h.bin_count(4), 1u);
    EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, OutOfRangeClampsToEdgeBins) {
    Histogram h(0.0, 10.0, 5);
    h.add(-100.0);
    h.add(100.0);
    EXPECT_EQ(h.bin_count(0), 1u);
    EXPECT_EQ(h.bin_count(4), 1u);
    EXPECT_EQ(h.total(), 2u);
}

TEST(Histogram, MergeSumsBinwise) {
    Histogram a(0.0, 10.0, 5), b(0.0, 10.0, 5);
    a.add(1.0);
    a.add(9.0);
    b.add(1.5);
    b.add(5.0);
    a.merge(b);
    EXPECT_EQ(a.bin_count(0), 2u);
    EXPECT_EQ(a.bin_count(2), 1u);
    EXPECT_EQ(a.bin_count(4), 1u);
    EXPECT_EQ(a.total(), 4u);
    EXPECT_EQ(b.total(), 2u);  // source untouched
}

TEST(Histogram, MergeRejectsMismatchedShape) {
    Histogram a(0.0, 10.0, 5);
    Histogram diff_bins(0.0, 10.0, 4), diff_range(0.0, 5.0, 5);
    EXPECT_THROW(a.merge(diff_bins), Error);
    EXPECT_THROW(a.merge(diff_range), Error);
}

TEST(Histogram, RejectsDegenerateConstruction) {
    EXPECT_THROW(Histogram(0.0, 0.0, 5), Error);
    EXPECT_THROW(Histogram(0.0, 1.0, 0), Error);
}

TEST(Histogram, QuantileKnownRanks) {
    // One observation per bin: ranks land mid-bin and interpolate to the
    // documented positions (rank = p·(total−1), uniform-within-bin).
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 10; ++i) h.add(i + 0.5);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.5);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 9.5);
}

TEST(Histogram, QuantileIsMonotoneAndBinBounded) {
    Histogram h(0.0, 100.0, 50);
    for (int i = 0; i < 1000; ++i) h.add((i * 37) % 100 + 0.01);
    double prev = h.quantile(0.0);
    for (double p : {0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        const double q = h.quantile(p);
        EXPECT_GE(q, prev) << "p=" << p;
        EXPECT_GE(q, 0.0);
        EXPECT_LE(q, 100.0);
        prev = q;
    }
}

TEST(Histogram, QuantileSkewedMassFindsTheTail) {
    // 990 observations in the first bin, 10 far out: rank 0.999·999
    // lands among the tail samples, rank 0.5 among the head ones.
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 990; ++i) h.add(0.5);
    for (int i = 0; i < 10; ++i) h.add(9.5);
    EXPECT_LT(h.quantile(0.5), 1.0);
    EXPECT_GE(h.quantile(0.999), 9.0);
}

TEST(Histogram, QuantileClampedObservationsUseEdgeBins) {
    Histogram h(0.0, 10.0, 5);
    h.add(-100.0);  // clamps into bin 0
    EXPECT_GE(h.quantile(0.5), 0.0);
    EXPECT_LE(h.quantile(0.5), 2.0);
}

TEST(Histogram, QuantileRejectsBadInput) {
    Histogram empty(0.0, 1.0, 4);
    EXPECT_THROW((void)empty.quantile(0.5), Error);
    Histogram h(0.0, 1.0, 4);
    h.add(0.5);
    EXPECT_THROW((void)h.quantile(-0.1), Error);
    EXPECT_THROW((void)h.quantile(1.1), Error);
}

TEST(Histogram, AsciiRendersOneLinePerBin) {
    Histogram h(0.0, 1.0, 3);
    h.add(0.1);
    const std::string art = h.ascii(10);
    EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 3);
}

TEST(Curvature, StraightLineHasZeroCurvature) {
    std::vector<double> xs{1, 2, 3, 4, 5}, ys{2, 4, 6, 8, 10};
    const auto k = discrete_curvature(xs, ys);
    for (std::size_t i = 1; i + 1 < k.size(); ++i) EXPECT_NEAR(k[i], 0.0, 1e-9);
}

TEST(Curvature, ElbowPointHasPeakCurvature) {
    // y drops fast then flattens: the elbow is at index 2. Curvature is
    // only meaningful on comparable axes, so both are normalised to [0,1]
    // first (exactly what the EEP search does).
    std::vector<double> xs{0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
    std::vector<double> ys{1.0, 0.4737, 0.0526, 0.0316, 0.0105, 0.0};
    const auto k = discrete_curvature(xs, ys);
    std::size_t best = 1;
    for (std::size_t i = 1; i + 1 < k.size(); ++i)
        if (k[i] > k[best]) best = i;
    EXPECT_EQ(best, 2u);
}

TEST(Curvature, EndpointsAreZero) {
    std::vector<double> xs{1, 2, 3}, ys{9, 1, 0.5};
    const auto k = discrete_curvature(xs, ys);
    EXPECT_EQ(k.front(), 0.0);
    EXPECT_EQ(k.back(), 0.0);
}

TEST(Curvature, RejectsBadInput) {
    std::vector<double> xs{1, 2}, ys{1, 2};
    EXPECT_THROW((void)discrete_curvature(xs, ys), Error);
    std::vector<double> xs2{1, 1, 2}, ys2{1, 2, 3};
    EXPECT_THROW((void)discrete_curvature(xs2, ys2), Error);
    std::vector<double> xs3{1, 2, 3}, ys3{1, 2};
    EXPECT_THROW((void)discrete_curvature(xs3, ys3), Error);
}

} // namespace
} // namespace scgnn
