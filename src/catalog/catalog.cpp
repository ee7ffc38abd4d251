#include "catalog/catalog.hpp"

#include <cmath>

#include "model/zipf_demand.hpp"
#include "util/check.hpp"

namespace swarmavail::catalog {

void CatalogConfig::validate() const {
    SWARMAVAIL_REQUIRE(num_files >= 1, "CatalogConfig: num_files must be >= 1");
    SWARMAVAIL_REQUIRE(std::isfinite(zipf_exponent) && zipf_exponent >= 0.0,
                       "CatalogConfig: zipf_exponent must be finite and >= 0");
    SWARMAVAIL_REQUIRE(std::isfinite(aggregate_demand) && aggregate_demand > 0.0,
                       "CatalogConfig: aggregate_demand must be finite and > 0");
    SWARMAVAIL_REQUIRE(std::isfinite(file_size) && file_size > 0.0,
                       "CatalogConfig: file_size must be finite and > 0");
    SWARMAVAIL_REQUIRE(std::isfinite(download_rate) && download_rate > 0.0,
                       "CatalogConfig: download_rate must be finite and > 0");
    SWARMAVAIL_REQUIRE(
        std::isfinite(publisher_arrival_rate) && publisher_arrival_rate > 0.0,
        "CatalogConfig: publisher_arrival_rate must be finite and > 0");
    SWARMAVAIL_REQUIRE(std::isfinite(publisher_residence) && publisher_residence > 0.0,
                       "CatalogConfig: publisher_residence must be finite and > 0");
}

double Catalog::total_demand() const noexcept {
    double total = 0.0;
    for (const CatalogFile& file : files) {
        total += file.demand_rate;
    }
    return total;
}

Catalog build_catalog(const CatalogConfig& config) {
    config.validate();
    const auto popularity =
        model::zipf_popularities(config.num_files, config.zipf_exponent);
    Catalog catalog;
    catalog.config = config;
    catalog.files.reserve(config.num_files);
    for (std::size_t i = 0; i < config.num_files; ++i) {
        CatalogFile file;
        file.id = i;
        file.demand_rate = popularity[i] * config.aggregate_demand;
        file.size = config.file_size;
        catalog.files.push_back(file);
    }
    return catalog;
}

}  // namespace swarmavail::catalog
