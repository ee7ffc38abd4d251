// swarmlint-fixture-path: src/sim/fixture_guarded.cpp

#include "sim/fingerprint.hpp"

namespace telemetry {
struct RunCounters;
void publish(double value);
}

namespace swarmavail::sim {

struct Tracer {
    void flush();
};

void attach_counters(telemetry::RunCounters* counters);

struct GuardedProbe {
    Tracer* tracer = nullptr;
    bool fingerprint = true;  // a runtime flag, not a touch
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
    Fingerprint* fingerprint_ = nullptr;
#endif

    void on_event(double when) {
#ifndef SWARMAVAIL_OBSERVE_DISABLED
        telemetry::publish(1.0);
        if (fingerprint_ != nullptr) {
            fingerprint_->fold(1ULL);
        }
#endif
        SWARMAVAIL_OBSERVE(fingerprint_, fold_event(when, 7U));
        SWARMAVAIL_OBSERVE(tracer, flush());
    }
};

}  // namespace swarmavail::sim
// swarmlint-fixture-path: src/serve/fixture_guarded.cpp

namespace swarmavail::serve {

struct RequestSpans {
    void begin(int stage);
};

struct SpanHub {
    void drain();
};

struct Probe {
    SpanHub* span_hub_ = nullptr;

    void handle(RequestSpans* spans) {
#ifndef SWARMAVAIL_OBSERVE_DISABLED
        spans->begin(1);
        span_hub_->drain();
#endif
        SWARMAVAIL_OBSERVE(spans, begin(2));
        RequestSpans* forwarded = spans;  // pointer copies are not touches
        static_cast<void>(forwarded);
    }
};

}  // namespace swarmavail::serve
