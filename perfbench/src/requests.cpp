#include "requests.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace perfbench {
namespace {

/// Shortest text that parses back to the same double.
std::string number(double value) {
    char buffer[32];
    for (int digits = 6; digits <= 17; ++digits) {
        std::snprintf(buffer, sizeof(buffer), "%.*g", digits, value);
        if (std::strtod(buffer, nullptr) == value) {
            break;
        }
    }
    return buffer;
}

/// Swarm parameters shared by every cell; the service's own examples use
/// the same base swarm (lambda = 2, s = 1, mu = 1.25, r = 0.05).
struct Swarm {
    double lambda = 2.0;
    double u = 30.0;
    std::size_t k = 1;
    const char* model = "impatient";
    const char* scaling = "constant";
};

std::string swarm_members(const Swarm& swarm) {
    std::string out = "\"lambda\":" + number(swarm.lambda) +
                      ",\"size\":1,\"mu\":1.25,\"r\":0.05,\"u\":" + number(swarm.u) +
                      ",\"k\":" + std::to_string(swarm.k) + ",\"model\":\"" +
                      swarm.model + "\",\"scaling\":\"" + swarm.scaling + "\"";
    return out;
}

RequestTemplate eval(const Swarm& swarm) {
    return {"EVAL", swarm_members(swarm) + "}"};
}

RequestTemplate plan(const Swarm& swarm, const char* variable, double target,
                     const std::string& extra) {
    return {"PLAN", swarm_members(swarm) + ",\"variable\":\"" + variable +
                        "\",\"target\":" + number(target) + extra + "}"};
}

/// The model-cold grid before jitter. The impatient model's eq.-9 series
/// costs about 4e-8 s * hump^2 with hump = (lambda K + r) max(K s / mu, u);
/// cells are kept to hump <= 1000 (about 40 ms here), so no request takes
/// more than 1% of a 20 s run. The closed forms (publishers_only,
/// peers_publishers) cost microseconds; they are few, so the median request
/// still computes for a millisecond or more rather than waiting on wakeups.
struct Cell {
    Swarm swarm;
    int kind = 0;  ///< 0 EVAL, 1 PLAN k, 2 PLAN r, 3 PLAN u
    double target = 0.0;
    double hi = 0.0;
};

double hump(const Swarm& swarm) {
    const auto k = static_cast<double>(swarm.k);
    return (swarm.lambda * k + 0.05) * std::max(k / 1.25, swarm.u);
}

std::vector<Cell> cold_grid() {
    std::vector<Cell> cells;
    for (const std::size_t k : {1, 2, 4, 8}) {
        for (const double u : {3.0, 10.0, 30.0, 60.0, 120.0, 240.0, 480.0}) {
            Swarm swarm;
            swarm.k = k;
            swarm.u = u;
            if (u > 3.0 && hump(swarm) <= 1000.0) {
                cells.push_back({swarm, 0, 0.0, 0.0});
            }
            if (u == 3.0 || u == 60.0 || u == 480.0) {
                Swarm closed = swarm;
                closed.model = u == 60.0 ? "peers_publishers" : "publishers_only";
                closed.scaling = k % 2 == 0 ? "proportional" : "constant";
                cells.push_back({closed, 0, 0.0, 0.0});
            }
        }
    }
    // Twelve more EVALs at hump 216-264 (a few ms), so the median request
    // falls in a dense band of costs rather than in a gap between cells.
    for (const std::size_t k : {1, 2, 4}) {
        for (const double factor : {0.9, 0.95, 1.05, 1.1}) {
            Swarm swarm;
            swarm.k = k;
            swarm.u = factor * 240.0 / (2.0 * static_cast<double>(k) + 0.05);
            cells.push_back({swarm, 0, 0.0, 0.0});
        }
    }
    for (const double u : {3.0, 10.0, 30.0}) {
        for (const double target : {1.0e-3, 1.0e-6}) {
            Swarm swarm;
            swarm.u = u;
            cells.push_back({swarm, 1, target, 0.0});
        }
        for (const std::size_t k : {1, 2}) {
            Swarm swarm;
            swarm.u = u;
            swarm.k = k;
            cells.push_back({swarm, 2, 1.0e-3, 0.0});
        }
    }
    for (const double hi : {20.0, 60.0}) {
        for (const double target : {0.05, 0.01}) {
            cells.push_back({Swarm{}, 3, target, hi});
        }
    }
    return cells;
}

}  // namespace

std::uint64_t SeedStream::next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30U)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27U)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31U);
}

double SeedStream::uniform() {
    return static_cast<double>(next() >> 11U) * 0x1.0p-53;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
    SeedStream stream(seed ^ (tag * 0xd1b54a32d192ed03ULL));
    return stream.next();
}

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t hash) {
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::string with_id(const RequestTemplate& request, std::uint64_t id) {
    std::string out;
    out.reserve(request.body.size() + 40);
    out += "{\"verb\":\"";
    out += request.verb;
    out += "\",\"id\":";
    out += std::to_string(id);
    out += ",";
    out += request.body;
    return out;
}

std::vector<RequestTemplate> cold_pass(std::uint64_t seed, std::size_t pass) {
    SeedStream jitter(mix_seed(seed, 1));
    std::vector<Cell> cells = cold_grid();
    const double pass_scale = 1.0 + static_cast<double>(pass + 1) * 1.0e-9;
    std::vector<RequestTemplate> out;
    out.reserve(cells.size());
    for (Cell& cell : cells) {
        cell.swarm.lambda *= (1.0 + 0.002 * (2.0 * jitter.uniform() - 1.0)) * pass_scale;
        cell.swarm.u *= 1.0 + 0.002 * (2.0 * jitter.uniform() - 1.0);
        switch (cell.kind) {
            case 0:
                out.push_back(eval(cell.swarm));
                break;
            case 1:
                out.push_back(plan(cell.swarm, "k", cell.target, ",\"max_k\":32"));
                break;
            case 2:
                out.push_back(plan(cell.swarm, "r", cell.target, ""));
                break;
            default:
                out.push_back(plan(cell.swarm, "u", cell.target,
                                   ",\"hi\":" + number(cell.hi)));
                break;
        }
    }
    // Same order in every pass of a seed, so a run that stops mid-pass has
    // covered a random, not a cost-sorted, prefix of it.
    SeedStream order(mix_seed(seed, 2));
    for (std::size_t i = out.size(); i > 1; --i) {
        std::swap(out[i - 1], out[order.next() % i]);
    }
    return out;
}

}  // namespace perfbench
