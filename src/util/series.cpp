#include "util/series.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace swarmavail {

double log_factorial(std::size_t n) {
    return std::lgamma(static_cast<double>(n) + 1.0);
}

double log_binomial(std::size_t n, std::size_t k) {
    require(k <= n, "log_binomial: requires k <= n");
    return log_factorial(n) - log_factorial(k) - log_factorial(n - k);
}

double poisson_pmf(std::size_t k, double mu) {
    require(mu >= 0.0, "poisson_pmf: requires mu >= 0");
    if (mu == 0.0) {
        return k == 0 ? 1.0 : 0.0;
    }
    const double log_p =
        static_cast<double>(k) * std::log(mu) - mu - log_factorial(k);
    return std::exp(log_p);
}

double log_add_exp(double a, double b) {
    if (std::isinf(a) && a < 0.0) {
        return b;
    }
    if (std::isinf(b) && b < 0.0) {
        return a;
    }
    const double hi = std::max(a, b);
    const double lo = std::min(a, b);
    return hi + std::log1p(std::exp(lo - hi));
}

double expm1_over(double x, double y) {
    require(y > 0.0, "expm1_over: requires y > 0");
    if (x > 700.0) {
        // exp would overflow; the quantity is effectively infinite.
        return std::numeric_limits<double>::infinity();
    }
    return std::expm1(x) / y;
}

double relative_difference(double a, double b, double floor) {
    const double scale = std::max({std::abs(a), std::abs(b), floor});
    return std::abs(a - b) / scale;
}

}  // namespace swarmavail
