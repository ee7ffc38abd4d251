// The one compile-time switch for every observer: traces, fingerprints,
// live telemetry, request spans and the phase profiler.
//
// Observers never change results, and they compile out completely. Building
// with SWARMAVAIL_OBSERVE_DISABLED (CMake: -DSWARMAVAIL_ENABLE_OBSERVE=OFF,
// the trace-off preset) removes every SWARMAVAIL_OBSERVE and
// SWARMAVAIL_PROF_SCOPE call site; hand-written regions that touch an
// observer sit behind `#if !defined(SWARMAVAIL_OBSERVE_DISABLED)`. The CI
// symbol check and swarmlint's obs-guarded rule hold the engines and the
// service to that.
#pragma once

#if defined(SWARMAVAIL_OBSERVE_DISABLED)
#define SWARMAVAIL_OBSERVE(observer, ...) static_cast<void>(0)
#else
/// Observer call site, e.g.
///   SWARMAVAIL_OBSERVE(config_.tracer, record(TraceKind::kPeerArrival, now, id));
///   SWARMAVAIL_OBSERVE(spans, begin(SpanStage::kParse));
/// One null-pointer branch when no observer is attached.
#define SWARMAVAIL_OBSERVE(observer, ...) \
    do {                                  \
        if ((observer) != nullptr) {      \
            (observer)->__VA_ARGS__;      \
        }                                 \
    } while (false)
#endif
