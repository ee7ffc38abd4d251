#include "queueing/hypoexponential.hpp"

#include <utility>

#include "util/error.hpp"

namespace swarmavail::queueing {

Hypoexponential::Hypoexponential(std::vector<double> rates) : rates_(std::move(rates)) {
    require(!rates_.empty(), "Hypoexponential: requires at least one stage");
    for (double r : rates_) {
        require(r > 0.0, "Hypoexponential: stage rates must be positive");
    }
}

Hypoexponential Hypoexponential::max_of_iid_exponentials(std::size_t n, double rate) {
    require(n >= 1, "max_of_iid_exponentials: requires n >= 1");
    require(rate > 0.0, "max_of_iid_exponentials: requires rate > 0");
    // Order statistics of exponentials: time until the first of k remaining
    // completes is Exp(k * rate), so the max decomposes into stages with
    // rates n*rate, (n-1)*rate, ..., 1*rate.
    std::vector<double> rates;
    rates.reserve(n);
    for (std::size_t k = n; k >= 1; --k) {
        rates.push_back(static_cast<double>(k) * rate);
    }
    return Hypoexponential{std::move(rates)};
}

double Hypoexponential::mean() const noexcept {
    double acc = 0.0;
    for (double r : rates_) {
        acc += 1.0 / r;
    }
    return acc;
}

double Hypoexponential::variance() const noexcept {
    double acc = 0.0;
    for (double r : rates_) {
        acc += 1.0 / (r * r);
    }
    return acc;
}

double Hypoexponential::laplace(double s) const {
    require(s >= 0.0, "Hypoexponential::laplace: requires s >= 0");
    double acc = 1.0;
    for (double r : rates_) {
        acc *= r / (r + s);
    }
    return acc;
}

double Hypoexponential::sample(Rng& rng) const {
    double acc = 0.0;
    for (double r : rates_) {
        acc += rng.exponential_rate(r);
    }
    return acc;
}

}  // namespace swarmavail::queueing
