// model-cold's seeded request stream. The program sees only the generated
// payloads; the seed stays in the harness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64: the harness's own generator, so input generation does not
/// depend on the library's RNG.
class SeedStream {
 public:
    explicit SeedStream(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /// Uniform in [0, 1).
    double uniform();

 private:
    std::uint64_t state_;
};

/// Mixes a seed with a stream tag into an independent stream seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag);

/// 64-bit FNV-1a over bytes.
[[nodiscard]] std::uint64_t fnv1a(const std::string& bytes,
                                  std::uint64_t hash = 0xcbf29ce484222325ULL);

/// A request payload without its id: "{\"verb\":\"EVAL\"," is followed by
/// the id member and then `body`.
struct RequestTemplate {
    std::string verb;  ///< "EVAL" or "PLAN"
    std::string body;  ///< members after the id, closing brace included
};

/// Builds the wire payload {"verb":V,"id":N,<body>.
[[nodiscard]] std::string with_id(const RequestTemplate& request, std::uint64_t id);

/// model-cold: one pass over a fixed grid of EVAL/PLAN cells across the three
/// availability models, bundle sizes K and publisher uptimes u. The seed
/// jitters each cell's parameters by at most 0.2% (so every seed's pass
/// costs the same) and shuffles the pass; pass
/// `p` scales lambda by (1 + (p + 1) * 1e-9), so no canonical key repeats
/// across passes while the cost of a pass stays the same.
[[nodiscard]] std::vector<RequestTemplate> cold_pass(std::uint64_t seed, std::size_t pass);

}  // namespace perfbench
