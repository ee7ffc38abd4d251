// Deterministic, fast pseudo-random generation for simulations.
//
// All simulators in this library draw randomness through `Rng`, a
// xoshiro256** generator with SplitMix64 seeding. A single 64-bit seed fully
// determines a simulation run, which keeps experiments reproducible and lets
// tests pin expected statistical behaviour.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace swarmavail {

/// xoshiro256** pseudo-random generator (Blackman & Vigna), seeded via
/// SplitMix64. Satisfies std::uniform_random_bit_generator so it can also be
/// plugged into <random> distributions, though the methods below are the
/// preferred sampling interface.
class Rng {
 public:
    using result_type = std::uint64_t;

    /// Constructs a generator whose entire stream is determined by `seed`.
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

    // The raw generator and the bounded draws are defined inline: they sit
    // inside simulator shuffle/tie-break loops that draw millions of times
    // per run, where an out-of-line call would cost more than the draw.

    /// Next raw 64-bit output.
    result_type operator()() noexcept {
        const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17U;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = std::rotl(state_[3], 45);
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
        ++draws_;
#endif
        return result;
    }

#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
    /// Raw 64-bit outputs generated so far. A determinism-fingerprint
    /// probe (two runs consuming different draw counts diverged even if
    /// their visible results agree); counter and accessor are absent under
    /// SWARMAVAIL_OBSERVE_DISABLED so the generator pays nothing.
    [[nodiscard]] std::uint64_t draws() const noexcept { return draws_; }
#endif

    /// Uniform double in [0, 1).
    [[nodiscard]] double uniform() noexcept {
        // 53 high bits -> double in [0, 1).
        return static_cast<double>((*this)() >> 11U) * 0x1.0p-53;
    }

    /// Uniform double in [lo, hi). Requires lo < hi.
    [[nodiscard]] double uniform(double lo, double hi) {
        require(lo < hi, "uniform(lo, hi): requires lo < hi");
        return lo + (hi - lo) * uniform();
    }

    /// Uniform integer in [0, n). Requires n > 0.
    [[nodiscard]] std::uint64_t uniform_index(std::uint64_t n) {
        require(n > 0, "uniform_index: requires n > 0");
        // Lemire's nearly-divisionless bounded sampling with rejection.
        std::uint64_t x = (*this)();
        __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
        auto lo = static_cast<std::uint64_t>(m);
        if (lo < n) {
            const std::uint64_t threshold = -n % n;
            while (lo < threshold) {
                x = (*this)();
                m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
                lo = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64U);
    }

    /// Exponential variate with the given mean. Requires mean > 0.
    /// Inline for the same reason as the draws above: every simulated
    /// arrival, transfer, and residence time is one of these.
    [[nodiscard]] double exponential_mean(double mean) {
        require(mean > 0.0, "exponential_mean: requires mean > 0");
        double v = uniform();
        // uniform() can return exactly 0; -log(0) would be inf.
        while (v <= 0.0) {
            v = uniform();
        }
        return -mean * std::log(v);
    }

    /// Exponential variate with the given rate. Requires rate > 0.
    [[nodiscard]] double exponential_rate(double rate) {
        require(rate > 0.0, "exponential_rate: requires rate > 0");
        return exponential_mean(1.0 / rate);
    }

    /// Poisson variate with the given mean (inversion for small means,
    /// PTRS-style transformed rejection for large). Requires mean >= 0.
    [[nodiscard]] std::uint64_t poisson(double mean);

    /// Bernoulli trial with success probability p in [0, 1].
    [[nodiscard]] bool bernoulli(double p);

    /// Pareto (Lomax-shifted) variate with scale xm > 0 and shape a > 0:
    /// support [xm, inf), heavy-tailed for small a. Used for synthetic
    /// heavy-tailed popularity/capacity mixes.
    [[nodiscard]] double pareto(double xm, double shape);

    /// Forks an independent generator: the child is seeded from this
    /// generator's stream, so sub-simulations stay reproducible without
    /// sharing a sequence.
    [[nodiscard]] Rng fork() noexcept;

 private:
    std::array<std::uint64_t, 4> state_{};
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
    std::uint64_t draws_ = 0;
#endif
};

/// Samples an index in [0, weights.size()) with probability proportional to
/// weights[i]. Requires a non-empty vector of non-negative weights with a
/// positive sum.
[[nodiscard]] std::size_t sample_discrete(Rng& rng, const std::vector<double>& weights);

/// Zipf distribution over ranks {1, ..., n}: P(k) proportional to k^-s.
/// Precomputes the CDF; sampling is O(log n).
class ZipfDistribution {
 public:
    /// Requires n >= 1 and exponent >= 0 (exponent 0 is uniform).
    ZipfDistribution(std::size_t n, double exponent);

    /// Returns a rank in [1, n].
    [[nodiscard]] std::size_t sample(Rng& rng) const;

    /// P(rank = k), k in [1, n].
    [[nodiscard]] double pmf(std::size_t k) const;

    [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }
    [[nodiscard]] double exponent() const noexcept { return exponent_; }

 private:
    std::vector<double> cdf_;  // cumulative probabilities, back() == 1
    double exponent_{};
};

}  // namespace swarmavail
