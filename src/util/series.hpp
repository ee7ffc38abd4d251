// Numerical helpers for the queueing formulas: log-space combinatorics,
// Poisson probabilities, and overflow-safe exponentials.
//
// The busy-period expressions in the paper (eqs. 9, 12, 13, 16) are infinite
// series whose terms involve beta^i / i! -- these explode in linear space for
// the large exponents bundling produces (beta * alpha ~ K^2), so everything
// here is computed with guarded term recurrences or log-space arithmetic.
#pragma once

#include <cstddef>

namespace swarmavail {

/// log(n!) via lgamma.
[[nodiscard]] double log_factorial(std::size_t n);

/// log of the binomial coefficient C(n, k). Requires k <= n.
[[nodiscard]] double log_binomial(std::size_t n, std::size_t k);

/// Poisson pmf P(N = k) for mean `mu` >= 0, computed in log space.
[[nodiscard]] double poisson_pmf(std::size_t k, double mu);

/// log(exp(a) + exp(b)) without overflow.
[[nodiscard]] double log_add_exp(double a, double b);

/// Numerically careful (e^x - 1) / y for y > 0: uses expm1 so small x keeps
/// full precision; large x saturates to +inf gracefully.
[[nodiscard]] double expm1_over(double x, double y);

/// Relative difference |a - b| / max(|a|, |b|, floor); 0 when both are ~0.
[[nodiscard]] double relative_difference(double a, double b, double floor = 1e-300);

}  // namespace swarmavail
