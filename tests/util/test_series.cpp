#include "util/series.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace swarmavail {
namespace {

TEST(LogFactorial, SmallValues) {
    EXPECT_NEAR(log_factorial(0), 0.0, 1e-12);
    EXPECT_NEAR(log_factorial(1), 0.0, 1e-12);
    EXPECT_NEAR(log_factorial(5), std::log(120.0), 1e-10);
    EXPECT_NEAR(log_factorial(10), std::log(3628800.0), 1e-9);
}

TEST(LogBinomial, MatchesDirectComputation) {
    EXPECT_NEAR(std::exp(log_binomial(5, 2)), 10.0, 1e-9);
    EXPECT_NEAR(std::exp(log_binomial(10, 5)), 252.0, 1e-7);
    EXPECT_NEAR(std::exp(log_binomial(7, 0)), 1.0, 1e-12);
    EXPECT_NEAR(std::exp(log_binomial(7, 7)), 1.0, 1e-12);
}

TEST(LogBinomial, RejectsKGreaterThanN) {
    EXPECT_THROW((void)log_binomial(3, 4), std::invalid_argument);
}

TEST(PoissonPmf, SumsToOne) {
    const double mu = 4.2;
    double total = 0.0;
    for (std::size_t k = 0; k < 60; ++k) {
        total += poisson_pmf(k, mu);
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(PoissonPmf, KnownValues) {
    EXPECT_NEAR(poisson_pmf(0, 1.0), std::exp(-1.0), 1e-12);
    EXPECT_NEAR(poisson_pmf(1, 1.0), std::exp(-1.0), 1e-12);
    EXPECT_NEAR(poisson_pmf(2, 1.0), std::exp(-1.0) / 2.0, 1e-12);
}

TEST(PoissonPmf, ZeroMeanIsPointMass) {
    EXPECT_DOUBLE_EQ(poisson_pmf(0, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(poisson_pmf(3, 0.0), 0.0);
}

TEST(LogAddExp, MatchesDirectForModerateValues) {
    EXPECT_NEAR(log_add_exp(std::log(3.0), std::log(4.0)), std::log(7.0), 1e-12);
}

TEST(LogAddExp, HandlesLargeMagnitudes) {
    // exp(1000) overflows, but log-add must stay finite and ~1000.
    const double result = log_add_exp(1000.0, 999.0);
    EXPECT_GT(result, 1000.0);
    EXPECT_LT(result, 1001.0);
}

TEST(LogAddExp, NegativeInfinityIsIdentity) {
    const double neg_inf = -std::numeric_limits<double>::infinity();
    EXPECT_DOUBLE_EQ(log_add_exp(neg_inf, 3.0), 3.0);
    EXPECT_DOUBLE_EQ(log_add_exp(3.0, neg_inf), 3.0);
    EXPECT_TRUE(std::isinf(log_add_exp(neg_inf, neg_inf)));
}

TEST(Expm1Over, SmallArgumentPrecision) {
    // (e^x - 1)/y for tiny x must not cancel to zero.
    const double x = 1e-12;
    EXPECT_NEAR(expm1_over(x, 2.0), x / 2.0, 1e-20);
}

TEST(Expm1Over, LargeArgumentSaturates) {
    EXPECT_TRUE(std::isinf(expm1_over(800.0, 1.0)));
}

TEST(Expm1Over, RejectsNonPositiveDenominator) {
    EXPECT_THROW((void)expm1_over(1.0, 0.0), std::invalid_argument);
}

TEST(RelativeDifference, BasicProperties) {
    EXPECT_DOUBLE_EQ(relative_difference(1.0, 1.0), 0.0);
    EXPECT_NEAR(relative_difference(1.0, 1.1), 0.1 / 1.1, 1e-12);
    EXPECT_DOUBLE_EQ(relative_difference(0.0, 0.0), 0.0);
    // Symmetric.
    EXPECT_DOUBLE_EQ(relative_difference(2.0, 3.0), relative_difference(3.0, 2.0));
}

}  // namespace
}  // namespace swarmavail
