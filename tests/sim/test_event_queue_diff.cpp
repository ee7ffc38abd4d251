// Differential test of the EventQueue against an independent reference
// binary heap: both are driven through identical randomized
// push/cancel/pop sequences (with heavy same-timestamp ties and slot
// reuse) and must produce bit-identical dispatch orders. The reference
// re-implements only the dispatch contract -- total order on (when,
// scheduling sequence), lazy cancellation -- with none of the queue's
// slab, generation or eager-drain bookkeeping, so a fault there (or in the
// queue's tie-break) shows up as an order or clock mismatch here rather
// than as a silently different simulation.
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/random.hpp"

namespace swarmavail::sim {
namespace {

/// Reference scheduler: a plain binary min-heap over (when, seq) with lazy
/// cancellation and per-tag liveness, sharing no code with EventQueue.
class ReferenceHeapQueue {
 public:
    std::uint64_t push(SimTime when) {
        const std::uint64_t tag = next_seq_++;
        heap_.push_back({when, tag});
        std::push_heap(heap_.begin(), heap_.end(), later);
        cancelled_.push_back(false);
        return tag;
    }

    void cancel(std::uint64_t tag) { cancelled_[tag] = true; }

    /// Pops the earliest live entry; returns {when, tag}. Requires a live
    /// entry to exist.
    std::pair<SimTime, std::uint64_t> pop() {
        for (;;) {
            std::pop_heap(heap_.begin(), heap_.end(), later);
            const Entry entry = heap_.back();
            heap_.pop_back();
            if (!cancelled_[entry.tag]) {
                return {entry.when, entry.tag};
            }
        }
    }

    [[nodiscard]] std::size_t live() const {
        std::size_t count = 0;
        for (const Entry& entry : heap_) {
            count += cancelled_[entry.tag] ? 0U : 1U;
        }
        return count;
    }

 private:
    struct Entry {
        SimTime when;
        std::uint64_t tag;
    };

    // Heap comparator for a min-heap: `a` is dispatched after `b` when it
    // has a later time, or an equal time and a later scheduling sequence.
    static bool later(const Entry& a, const Entry& b) {
        return a.when > b.when || (a.when == b.when && a.tag > b.tag);
    }

    std::vector<Entry> heap_;
    std::vector<bool> cancelled_;  // indexed by tag
    std::uint64_t next_seq_ = 0;
};

struct DifferentialRunConfig {
    std::uint64_t seed = 0;
    std::size_t ops = 4000;
    bool audit = false;
    /// Times are drawn from a grid of this many distinct offsets, so small
    /// values force heavy same-timestamp ties.
    std::uint64_t time_grid = 16;
    /// Far-future deltas (deep heap residents) get this multiplier.
    double churn_span = 512.0;
};

/// Drives the real queue and the reference heap through one randomized
/// sequence and asserts bit-identical dispatch order and clocks.
void run_differential(const DifferentialRunConfig& config) {
    EventQueue queue;
    queue.set_audit(config.audit);
    ReferenceHeapQueue reference;

    Rng rng{config.seed};
    // Live handles: parallel arrays of real-queue ids and reference tags.
    std::vector<EventId> ids;
    std::vector<std::uint64_t> tags;
    std::vector<std::uint64_t> dispatched_tags;
    std::vector<std::uint64_t> fired_tags;

    const auto schedule_one = [&] {
        const double grid_step =
            static_cast<double>(rng.uniform_index(config.time_grid)) /
            static_cast<double>(config.time_grid);
        const bool churn = (rng() & 7U) == 0;
        const SimTime when =
            queue.now() + grid_step * (churn ? config.churn_span : 1.0);
        const std::uint64_t tag = reference.push(when);
        ids.push_back(queue.schedule_at(when, [&fired_tags, tag] {
            fired_tags.push_back(tag);
        }));
        tags.push_back(tag);
    };

    for (std::size_t op = 0; op < config.ops; ++op) {
        const std::uint64_t roll = rng.uniform_index(10);
        if (roll < 5 || queue.empty()) {
            schedule_one();
        } else if (roll < 7 && !ids.empty()) {
            const auto victim = static_cast<std::size_t>(rng.uniform_index(ids.size()));
            queue.cancel(ids[victim]);
            reference.cancel(tags[victim]);
            ids[victim] = ids.back();
            ids.pop_back();
            tags[victim] = tags.back();
            tags.pop_back();
        } else {
            const auto [expect_when, expect_tag] = reference.pop();
            ASSERT_TRUE(queue.run_next());
            ASSERT_EQ(fired_tags.size(), dispatched_tags.size() + 1);
            dispatched_tags.push_back(fired_tags.back());
            ASSERT_EQ(fired_tags.back(), expect_tag)
                << "dispatch order diverged at op " << op;
            ASSERT_EQ(queue.now(), expect_when)
                << "clock diverged at op " << op;
            const auto done = std::find(tags.begin(), tags.end(), expect_tag);
            ASSERT_NE(done, tags.end());
            const auto index = static_cast<std::size_t>(done - tags.begin());
            ids[index] = ids.back();
            ids.pop_back();
            tags[index] = tags.back();
            tags.pop_back();
        }
        ASSERT_EQ(queue.size(), reference.live());
    }

    // Drain both to the end: the tail order must match too (this is where
    // the far-future churn entries surface).
    while (!queue.empty()) {
        const auto [expect_when, expect_tag] = reference.pop();
        ASSERT_TRUE(queue.run_next());
        ASSERT_EQ(fired_tags.back(), expect_tag);
        ASSERT_EQ(queue.now(), expect_when);
    }
    ASSERT_EQ(reference.live(), 0U);
    ASSERT_FALSE(queue.run_next());
}

TEST(EventQueueDifferential, MatchesReferenceHeapAcrossSeeds) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        DifferentialRunConfig config;
        config.seed = seed;
        run_differential(config);
    }
}

TEST(EventQueueDifferential, HeavyTiesSingleTimestampGrid) {
    // time_grid=1 makes every delta zero: all events land on the current
    // clock, so the entire run is one long FIFO tie chain.
    DifferentialRunConfig config;
    config.seed = 42;
    config.time_grid = 1;
    config.ops = 2000;
    run_differential(config);
}

TEST(EventQueueDifferential, CoarseTieGridWithFarChurn) {
    DifferentialRunConfig config;
    config.seed = 7;
    config.time_grid = 4;
    config.churn_span = 100000.0;
    run_differential(config);
}

TEST(EventQueueDifferential, AuditModeStaysConsistent) {
    // Same randomized traffic with the full structural audit running at
    // every pop: heap order, slab/free-list bookkeeping and the cached
    // head. Any internal inconsistency throws CheckFailure.
    DifferentialRunConfig config;
    config.seed = 1234;
    config.ops = 1500;
    config.audit = true;
    run_differential(config);
}

#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
TEST(EventQueueDifferential, FingerprintMatchesReferenceDispatchOrder) {
    // The queue folds (when, seq, 0) per dispatch; folding the reference
    // heap's dispatch stream into an identically seeded chain must land on
    // the same digest — the O(1) form of the order-equality the
    // differential runs above assert event by event. The reference tags
    // are the scheduling sequence numbers, matching the queue's seq.
    for (const std::uint64_t seed : {3ULL, 99ULL}) {
        EventQueue queue;
        Fingerprint queue_chain{seed};
        queue.set_fingerprint(&queue_chain);
        ReferenceHeapQueue reference;
        Fingerprint reference_chain{seed};

        Rng rng{seed};
        for (std::size_t i = 0; i < 3000; ++i) {
            const bool churn = (rng() & 7U) == 0;
            const SimTime when =
                queue.now() + rng.uniform() * (churn ? 512.0 : 1.0);
            (void)queue.schedule_at(when, [] {});
            (void)reference.push(when);
        }
        while (!queue.empty()) {
            const auto [when, tag] = reference.pop();
            reference_chain.fold_event(when, tag, 0U);
            ASSERT_TRUE(queue.run_next());
        }
        EXPECT_EQ(queue_chain.digest(), reference_chain.digest());
        EXPECT_EQ(queue_chain.events(), 3000U);
    }
}
#endif

TEST(EventQueueDifferential, StaleIdAfterSlotReuseIsInert) {
    // Slot generations: once an event fires, its slot is recycled under a
    // new generation, so a retained id from the fired event must not
    // cancel the replacement that reuses the slot.
    EventQueue queue;
    int fired = 0;
    const EventId stale = queue.schedule_at(1.0, [&] { ++fired; });
    ASSERT_TRUE(queue.run_next());
    // The singleton queue recycles the slot immediately.
    queue.schedule_at(2.0, [&] { ++fired; });
    queue.cancel(stale);
    EXPECT_EQ(queue.size(), 1U);
    ASSERT_TRUE(queue.run_next());
    EXPECT_EQ(fired, 2);
}

}  // namespace
}  // namespace swarmavail::sim
