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
