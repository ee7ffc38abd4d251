#include "queueing/hypoexponential.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "util/random.hpp"
#include "util/stats.hpp"

namespace swarmavail::queueing {
namespace {

TEST(Hypoexponential, MeanIsSumOfStageMeans) {
    const Hypoexponential dist{{0.5, 0.25, 1.0}};
    EXPECT_NEAR(dist.mean(), 2.0 + 4.0 + 1.0, 1e-12);
}

TEST(Hypoexponential, VarianceIsSumOfStageVariances) {
    const Hypoexponential dist{{0.5, 0.25}};
    EXPECT_NEAR(dist.variance(), 4.0 + 16.0, 1e-12);
}

TEST(Hypoexponential, LaplaceTransformAtZeroIsOne) {
    const Hypoexponential dist{{1.0, 2.0, 3.0}};
    EXPECT_DOUBLE_EQ(dist.laplace(0.0), 1.0);
}

TEST(Hypoexponential, LaplaceTransformKnownValue) {
    // Single stage Exp(rate): L(s) = rate / (rate + s).
    const Hypoexponential dist{{2.0}};
    EXPECT_NEAR(dist.laplace(3.0), 2.0 / 5.0, 1e-12);
}

TEST(Hypoexponential, LaplaceTransformIsDecreasing) {
    const Hypoexponential dist{{1.0, 0.5}};
    double previous = 1.0;
    for (double s : {0.1, 0.5, 1.0, 5.0}) {
        const double value = dist.laplace(s);
        EXPECT_LT(value, previous);
        previous = value;
    }
}

TEST(Hypoexponential, SampleMeanMatches) {
    const Hypoexponential dist{{0.1, 0.2}};
    Rng rng{61};
    StreamingStats stats;
    for (int i = 0; i < 100000; ++i) {
        stats.add(dist.sample(rng));
    }
    EXPECT_NEAR(stats.mean(), dist.mean(), 4.0 * stats.ci95_halfwidth());
}

TEST(Hypoexponential, RejectsInvalidRates) {
    EXPECT_THROW((Hypoexponential{{}}), std::invalid_argument);
    EXPECT_THROW((Hypoexponential{{1.0, 0.0}}), std::invalid_argument);
    EXPECT_THROW((Hypoexponential{{-1.0}}), std::invalid_argument);
}

TEST(MaxOfIidExponentials, MeanIsHarmonicSum) {
    // E[max of n Exp(rate)] = (1/rate) * H_n (Lemma 3.3's virtual customer).
    const double rate = 0.05;
    const auto dist = Hypoexponential::max_of_iid_exponentials(4, rate);
    const double h4 = 1.0 + 0.5 + 1.0 / 3.0 + 0.25;
    EXPECT_NEAR(dist.mean(), h4 / rate, 1e-9);
    EXPECT_EQ(dist.stages(), 4u);
}

TEST(MaxOfIidExponentials, DistributionMatchesDirectMaximum) {
    // Sample max{X_1..X_5} directly and via the stage decomposition; the
    // means and variances must agree.
    const double rate = 0.2;
    const auto dist = Hypoexponential::max_of_iid_exponentials(5, rate);
    Rng rng{67};
    StreamingStats direct;
    StreamingStats staged;
    for (int i = 0; i < 100000; ++i) {
        double max_value = 0.0;
        for (int j = 0; j < 5; ++j) {
            max_value = std::max(max_value, rng.exponential_rate(rate));
        }
        direct.add(max_value);
        staged.add(dist.sample(rng));
    }
    EXPECT_NEAR(direct.mean(), staged.mean(),
                4.0 * (direct.ci95_halfwidth() + staged.ci95_halfwidth()));
    EXPECT_NEAR(direct.stddev(), staged.stddev(), 0.05 * direct.stddev());
}

TEST(MaxOfIidExponentials, LaplaceMatchesLemma33Form) {
    // Lemma 3.3: Laplace transform prod_i (i mu / s)/(s + i mu / s) with the
    // paper's notation; in rate form prod_i (i r)/(i r + s).
    const double rate = 0.1;
    const auto dist = Hypoexponential::max_of_iid_exponentials(3, rate);
    const double s = 0.07;
    double expected = 1.0;
    for (int i = 1; i <= 3; ++i) {
        expected *= (i * rate) / (i * rate + s);
    }
    EXPECT_NEAR(dist.laplace(s), expected, 1e-12);
}

}  // namespace
}  // namespace swarmavail::queueing
