// swarmlint-fixture-path: src/serve/fixture_probe.cpp
// swarmlint-expect: obs-guarded
// swarmlint-expect: obs-guarded

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
        spans->begin(1);
        span_hub_->drain();
    }
};

}  // namespace swarmavail::serve
