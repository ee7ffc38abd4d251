#include "sim/availability_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "model/availability.hpp"
#include "model/download_time.hpp"

namespace swarmavail::sim {
namespace {

model::SwarmParams base_params() {
    model::SwarmParams params;
    params.peer_arrival_rate = 1.0 / 60.0;
    params.content_size = 80.0;
    params.download_rate = 1.0;
    params.publisher_arrival_rate = 1.0 / 900.0;
    params.publisher_residence = 300.0;
    return params;
}

AvailabilitySimConfig base_config() {
    AvailabilitySimConfig config;
    config.params = base_params();
    config.horizon = 2.0e6;
    config.seed = 5;
    return config;
}

TEST(AvailabilitySim, ConservationOfPeers) {
    auto config = base_config();
    config.patient_peers = false;
    const auto result = run_availability_sim(config);
    // Every arrival is served, lost, or still in flight at the horizon.
    EXPECT_GE(result.arrivals, result.served + result.lost);
    EXPECT_GT(result.served, 0u);
    EXPECT_GT(result.lost, 0u);
}

TEST(AvailabilitySim, ImpatientLossMatchesEquation10) {
    auto config = base_config();
    config.patient_peers = false;
    config.horizon = 4.0e6;
    const auto result = run_availability_sim(config);
    const auto model = model::availability_impatient(config.params);
    const double simulated =
        static_cast<double>(result.lost) / static_cast<double>(result.arrivals);
    EXPECT_NEAR(simulated, model.unavailability, 0.05 * model.unavailability + 0.01);
}

TEST(AvailabilitySim, BusyPeriodsMatchEquation9) {
    auto config = base_config();
    config.patient_peers = false;
    config.horizon = 4.0e6;
    const auto result = run_availability_sim(config);
    const auto model = model::mixed_busy_period(config.params);
    ASSERT_GT(result.busy_periods.count(), 50u);
    EXPECT_NEAR(result.busy_periods.mean(), model.value,
                6.0 * result.busy_periods.ci95_halfwidth());
}

TEST(AvailabilitySim, IdlePeriodsAverageOneOverR) {
    auto config = base_config();
    config.patient_peers = false;
    const auto result = run_availability_sim(config);
    ASSERT_GT(result.idle_periods.count(), 30u);
    EXPECT_NEAR(result.idle_periods.mean(), 900.0,
                6.0 * result.idle_periods.ci95_halfwidth());
}

TEST(AvailabilitySim, PatientDownloadTimesMatchEquation11) {
    auto config = base_config();
    config.patient_peers = true;
    config.horizon = 4.0e6;
    const auto result = run_availability_sim(config);
    const auto model = model::download_time_patient(config.params);
    ASSERT_GT(result.download_times.count(), 1000u);
    EXPECT_NEAR(result.download_times.mean(), model.download_time,
                0.12 * model.download_time);
}

TEST(AvailabilitySim, PatientPeersAreNeverLost) {
    auto config = base_config();
    config.patient_peers = true;
    const auto result = run_availability_sim(config);
    EXPECT_EQ(result.lost, 0u);
}

TEST(AvailabilitySim, WaitingOnlyWhenUnavailable) {
    auto config = base_config();
    config.patient_peers = true;
    config.params.publisher_arrival_rate = 0.05;  // highly available
    config.params.publisher_residence = 5000.0;
    const auto result = run_availability_sim(config);
    EXPECT_LT(result.waiting_times.mean(), 1.0);
    EXPECT_NEAR(result.download_times.mean(), 80.0, 8.0);
}

TEST(AvailabilitySim, HigherThresholdShortensBusyPeriods) {
    auto config = base_config();
    config.patient_peers = false;
    auto low = config;
    low.coverage_threshold = 1;
    auto high = config;
    high.coverage_threshold = 8;
    const auto result_low = run_availability_sim(low);
    const auto result_high = run_availability_sim(high);
    EXPECT_LT(result_high.busy_periods.mean(), result_low.busy_periods.mean());
    EXPECT_GT(result_high.unavailable_time_fraction,
              result_low.unavailable_time_fraction);
}

TEST(AvailabilitySim, LingeringExtendsBusyPeriods) {
    auto config = base_config();
    config.patient_peers = false;
    auto lingering = config;
    lingering.linger_time = 200.0;
    const auto plain = run_availability_sim(config);
    const auto with_linger = run_availability_sim(lingering);
    EXPECT_GT(with_linger.busy_periods.mean(), plain.busy_periods.mean());
    EXPECT_LT(with_linger.arrival_unavailability, plain.arrival_unavailability);
}

TEST(AvailabilitySim, SingleOnOffPublisherDutyCycle) {
    auto config = base_config();
    config.publisher_mode = PublisherMode::kSingleOnOff;
    config.patient_peers = false;
    config.params.peer_arrival_rate = 1e-6;  // no peer support
    config.horizon = 4.0e6;
    const auto result = run_availability_sim(config);
    // Availability equals the publisher duty cycle u/(u + 1/r) = 0.25.
    EXPECT_NEAR(result.unavailable_time_fraction, 0.75, 0.03);
}

TEST(AvailabilitySim, BundlingReducesUnavailability) {
    auto config = base_config();
    config.patient_peers = false;
    const auto single = run_availability_sim(config);
    auto bundled = config;
    bundled.params = model::make_bundle(config.params, 3,
                                        model::PublisherScaling::kConstant);
    const auto bundle = run_availability_sim(bundled);
    EXPECT_LT(bundle.arrival_unavailability, single.arrival_unavailability);
}

TEST(AvailabilitySim, DeterministicForFixedSeed) {
    const auto a = run_availability_sim(base_config());
    const auto b = run_availability_sim(base_config());
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.served, b.served);
    EXPECT_DOUBLE_EQ(a.download_times.mean(), b.download_times.mean());
}

TEST(AvailabilitySim, DifferentSeedsDiffer) {
    auto config = base_config();
    config.seed = 6;
    const auto a = run_availability_sim(base_config());
    const auto b = run_availability_sim(config);
    EXPECT_NE(a.arrivals, b.arrivals);
}

TEST(AvailabilitySim, RejectsInvalidConfig) {
    auto config = base_config();
    config.coverage_threshold = 0;
    EXPECT_THROW((void)run_availability_sim(config), std::invalid_argument);
    config = base_config();
    config.horizon = 0.0;
    EXPECT_THROW((void)run_availability_sim(config), std::invalid_argument);
    config = base_config();
    config.linger_time = -1.0;
    EXPECT_THROW((void)run_availability_sim(config), std::invalid_argument);
}

// An infinite horizon passes `horizon > 0` but would never end the run.
TEST(AvailabilitySim, RejectsInfiniteHorizon) {
    auto config = base_config();
    config.horizon = std::numeric_limits<double>::infinity();
    try {
        (void)run_availability_sim(config);
        ADD_FAILURE() << "an infinite horizon was accepted";
    } catch (const std::invalid_argument& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("AvailabilitySim: horizon must be finite"), std::string::npos)
            << what;
    }
}

}  // namespace
}  // namespace swarmavail::sim
