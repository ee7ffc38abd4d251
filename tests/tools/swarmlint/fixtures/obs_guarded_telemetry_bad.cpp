// swarmlint-fixture-path: src/sim/fixture_probe.cpp
// swarmlint-expect: obs-guarded

namespace telemetry {
void publish(double value);
}

namespace swarmavail::sim {

void tick_probe() { telemetry::publish(1.0); }

}  // namespace swarmavail::sim
