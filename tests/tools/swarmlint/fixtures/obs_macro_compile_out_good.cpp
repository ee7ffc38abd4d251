// swarmlint-fixture-path: src/util/observe.hpp
#pragma once

#ifdef SWARMAVAIL_OBSERVE_DISABLED
#define SWARMAVAIL_OBSERVE_SAMPLE(expr) ((void)0)
#else
#define SWARMAVAIL_OBSERVE_SAMPLE(expr) (expr)
#endif
// swarmlint-fixture-path: src/model/fixture_sample.cpp

namespace swarmavail::model {

void sample_rate() { SWARMAVAIL_OBSERVE_SAMPLE(3); }

}  // namespace swarmavail::model
