// swarmlint-fixture-path: src/sim/fixture_probe.cpp
// swarmlint-expect: obs-guarded
// swarmlint-expect: obs-guarded
// swarmlint-expect: obs-guarded

namespace telemetry {
void publish(double value);
}

namespace swarmavail::sim {

struct Tracer {
    void flush();
};

struct Digest {
    void fold(unsigned long long value);
};

struct UnguardedProbe {
    Tracer* tracer = nullptr;
    Digest* fingerprint_ = nullptr;

    void on_event() {
        telemetry::publish(1.0);
        if (fingerprint_ != nullptr) {
            fingerprint_->fold(1ULL);
        }
        if (tracer != nullptr) {
            tracer->flush();
        }
    }
};

}  // namespace swarmavail::sim
// swarmlint-fixture-path: src/serve/fixture_probe.cpp
// swarmlint-expect: obs-guarded

namespace swarmavail::serve {

struct RequestSpans {
    void begin(int stage);
};

void handle(RequestSpans* spans) { spans->begin(1); }

}  // namespace swarmavail::serve
