// Pinned determinism fingerprints of the block-level swarm simulator.
//
// Every other swarm test compares one run with another; this table holds
// digests recorded once, so a change to the scheduler that alters a single
// RNG draw or event -- in any config family -- fails here even when both
// sides of a run-vs-run comparison move together. The rows span the
// engine's branches: bundle sizes whose piece bitmaps fill one word, spill
// into two (K = 10: 80 pieces) or end on a ragged tail, all three publisher
// modes, trace-driven arrivals, limited visibility with PEX, super-seeding,
// lingering seeds, heterogeneous capacities with the reciprocity cap, and
// the drain phase. A deliberate change to the simulated dynamics re-records
// the table (and perfbench/digests.tsv) in the same change.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>

#include "swarm/swarm_sim.hpp"
#include "swarm_fingerprint_table.hpp"

namespace swarmavail::swarm {
namespace {

using fingerprint_table::config_for;
using fingerprint_table::Row;
using fingerprint_table::rows;

TEST(SwarmFingerprints, MatchRecordedTable) {
#if defined(SWARMAVAIL_OBSERVE_DISABLED)
    GTEST_SKIP() << "fingerprints are compiled out";
#else
    for (const Row& row : rows()) {
        SCOPED_TRACE(row.name);
        const SwarmSimResult result = run_swarm_sim(config_for(row.shape));
        EXPECT_GT(result.arrivals, 0u);
        if (result.fingerprint != row.fingerprint ||
            result.fingerprint_events != row.events) {
            char line[96];
            std::snprintf(line, sizeof line, "0x%016" PRIx64 ", %" PRIu64,
                          result.fingerprint, result.fingerprint_events);
            ADD_FAILURE() << "fingerprint moved; this run gives " << line;
        }
    }
#endif
}

}  // namespace
}  // namespace swarmavail::swarm
