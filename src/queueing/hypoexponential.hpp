// Hypoexponential distribution: the sum of independent exponential stages
// with distinct rates.
//
// Lemma 3.3 of the paper uses it to describe the residual residence of the
// "virtual customer" that starts a residual busy period with n peers online:
// max of n i.i.d. Exp(mu/s) variables, which by the memoryless property is
// hypoexponential with stage means (s/mu, s/(2 mu), ..., s/(n mu)).
#pragma once

#include <cstddef>
#include <vector>

#include "util/random.hpp"

namespace swarmavail::queueing {

/// Sum of independent exponential stages. Stage i has rate `rates[i]`.
class Hypoexponential {
 public:
    /// Requires a non-empty vector of positive rates.
    explicit Hypoexponential(std::vector<double> rates);

    /// The distribution of max{X_1..X_n} of n i.i.d. Exp(rate) variables:
    /// hypoexponential with stage rates (n*rate, (n-1)*rate, ..., rate).
    /// Requires n >= 1, rate > 0.
    [[nodiscard]] static Hypoexponential max_of_iid_exponentials(std::size_t n,
                                                                 double rate);

    [[nodiscard]] double mean() const noexcept;
    [[nodiscard]] double variance() const noexcept;

    /// Laplace transform E[e^{-s X}] = prod_i rate_i / (rate_i + s), s >= 0.
    [[nodiscard]] double laplace(double s) const;

    /// Draws one variate (sum of stage exponentials).
    [[nodiscard]] double sample(Rng& rng) const;

    [[nodiscard]] const std::vector<double>& rates() const noexcept { return rates_; }
    [[nodiscard]] std::size_t stages() const noexcept { return rates_.size(); }

 private:
    std::vector<double> rates_;
};

}  // namespace swarmavail::queueing
