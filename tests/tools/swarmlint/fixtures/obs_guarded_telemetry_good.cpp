// swarmlint-fixture-path: src/sim/fixture_guarded.cpp

namespace telemetry {
struct RunCounters {
    void add(double value);
};
void publish(double value);
}

namespace swarmavail::sim {

void attach_counters(telemetry::RunCounters* counters);

void tick_guarded(telemetry::RunCounters* telemetry) {
#ifndef SWARMAVAIL_OBSERVE_DISABLED
    telemetry::publish(1.0);
#endif
    SWARMAVAIL_OBSERVE(telemetry, add(2.0));
}

}  // namespace swarmavail::sim
