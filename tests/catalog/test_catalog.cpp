#include "catalog/catalog.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <stdexcept>

namespace swarmavail::catalog {
namespace {

CatalogConfig base_config(std::size_t files = 10) {
    CatalogConfig config;
    config.num_files = files;
    config.zipf_exponent = 1.0;
    config.aggregate_demand = 1.0 / 30.0;
    config.file_size = 80.0;
    config.download_rate = 1.0;
    config.publisher_arrival_rate = 1.0 / 900.0;
    config.publisher_residence = 300.0;
    return config;
}

TEST(BuildCatalog, DemandsSumToAggregateAndFollowZipf) {
    const auto catalog = build_catalog(base_config(10));
    ASSERT_EQ(catalog.files.size(), 10u);
    double total = 0.0;
    for (const auto& file : catalog.files) {
        total += file.demand_rate;
        EXPECT_EQ(file.size, 80.0);
    }
    EXPECT_NEAR(total, 1.0 / 30.0, 1e-12);
    EXPECT_NEAR(catalog.total_demand(), total, 1e-15);
    // Zipf(1): rank 1 twice as popular as rank 2, three times rank 3.
    EXPECT_NEAR(catalog.files[0].demand_rate / catalog.files[1].demand_rate, 2.0, 1e-9);
    EXPECT_NEAR(catalog.files[0].demand_rate / catalog.files[2].demand_rate, 3.0, 1e-9);
    // Ids are popularity ranks.
    for (std::size_t i = 0; i < catalog.files.size(); ++i) {
        EXPECT_EQ(catalog.files[i].id, i);
        if (i > 0) {
            EXPECT_LT(catalog.files[i].demand_rate, catalog.files[i - 1].demand_rate);
        }
    }
}

TEST(BuildCatalog, UniformExponentGivesEqualDemand) {
    auto config = base_config(4);
    config.zipf_exponent = 0.0;
    const auto catalog = build_catalog(config);
    for (const auto& file : catalog.files) {
        EXPECT_NEAR(file.demand_rate, config.aggregate_demand / 4.0, 1e-12);
    }
}

TEST(CatalogConfig, ValidateRejectsDegenerateInputs) {
    EXPECT_NO_THROW(base_config().validate());

    auto config = base_config();
    config.num_files = 0;
    EXPECT_THROW(config.validate(), std::invalid_argument);

    config = base_config();
    config.zipf_exponent = -0.1;
    EXPECT_THROW(config.validate(), std::invalid_argument);

    config = base_config();
    config.aggregate_demand = 0.0;
    EXPECT_THROW(config.validate(), std::invalid_argument);

    config = base_config();
    config.file_size = -1.0;
    EXPECT_THROW(config.validate(), std::invalid_argument);

    config = base_config();
    config.download_rate = 0.0;
    EXPECT_THROW(config.validate(), std::invalid_argument);

    config = base_config();
    config.publisher_arrival_rate = 0.0;
    EXPECT_THROW(config.validate(), std::invalid_argument);

    config = base_config();
    config.publisher_residence = 0.0;
    EXPECT_THROW(config.validate(), std::invalid_argument);

    // Every real-valued knob must also be finite: an infinite demand or
    // publisher rate would otherwise fail deep inside the simulation.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (double CatalogConfig::*knob :
         {&CatalogConfig::zipf_exponent, &CatalogConfig::aggregate_demand,
          &CatalogConfig::file_size, &CatalogConfig::download_rate,
          &CatalogConfig::publisher_arrival_rate, &CatalogConfig::publisher_residence}) {
        for (const double value : {kInf, std::numeric_limits<double>::quiet_NaN()}) {
            config = base_config();
            config.*knob = value;
            EXPECT_THROW(config.validate(), std::invalid_argument) << value;
        }
    }
}

TEST(BuildCatalog, ValidatesBeforeBuilding) {
    auto config = base_config();
    config.num_files = 0;
    EXPECT_THROW((void)build_catalog(config), std::invalid_argument);
}

}  // namespace
}  // namespace swarmavail::catalog
