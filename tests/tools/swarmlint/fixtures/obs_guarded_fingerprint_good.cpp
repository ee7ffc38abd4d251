// swarmlint-fixture-path: src/sim/fixture_fp_guarded.cpp

#include "sim/fingerprint.hpp"

namespace swarmavail::sim {

struct GuardedProbe {
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
    Fingerprint* fingerprint_ = nullptr;
#endif

    void on_event(double when) {
        SWARMAVAIL_OBSERVE(fingerprint_, fold_event(when, 7U));
#ifndef SWARMAVAIL_OBSERVE_DISABLED
        if (fingerprint_ != nullptr) {
            fingerprint_->fold(1ULL);
        }
#endif
    }
};

}  // namespace swarmavail::sim
