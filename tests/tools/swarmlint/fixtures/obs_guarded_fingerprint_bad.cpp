// swarmlint-fixture-path: src/sim/fixture_fp_probe.cpp
// swarmlint-expect: obs-guarded
// swarmlint-expect: obs-guarded

#include "sim/fingerprint.hpp"

namespace swarmavail::sim {

struct UnguardedProbe {
    Fingerprint* fingerprint_ = nullptr;

    void on_event() {
        if (fingerprint_ != nullptr) {
            fingerprint_->fold(1ULL);
        }
    }
};

}  // namespace swarmavail::sim
