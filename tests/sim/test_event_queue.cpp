#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace swarmavail::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
    EventQueue queue;
    std::vector<int> order;
    queue.schedule_at(3.0, [&] { order.push_back(3); });
    queue.schedule_at(1.0, [&] { order.push_back(1); });
    queue.schedule_at(2.0, [&] { order.push_back(2); });
    while (queue.run_next()) {
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(queue.now(), 3.0);
}

TEST(EventQueue, SimultaneousEventsFifo) {
    EventQueue queue;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) {
        queue.schedule_at(1.0, [&order, i] { order.push_back(i); });
    }
    while (queue.run_next()) {
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsExecution) {
    EventQueue queue;
    bool fired = false;
    const EventId id = queue.schedule_at(1.0, [&] { fired = true; });
    queue.cancel(id);
    while (queue.run_next()) {
    }
    EXPECT_FALSE(fired);
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, CancelUnknownIdIsNoOp) {
    EventQueue queue;
    queue.schedule_at(1.0, [] {});
    queue.cancel(9999);
    queue.cancel(0);
    EXPECT_EQ(queue.size(), 1u);
}

TEST(EventQueue, DoubleCancelCountsOnce) {
    EventQueue queue;
    const EventId id = queue.schedule_at(1.0, [] {});
    queue.schedule_at(2.0, [] {});
    queue.cancel(id);
    queue.cancel(id);
    EXPECT_EQ(queue.size(), 1u);
}

TEST(EventQueue, RunUntilStopsAtHorizon) {
    EventQueue queue;
    std::vector<double> fired;
    for (double t : {1.0, 2.0, 3.0, 4.0}) {
        queue.schedule_at(t, [&fired, t] { fired.push_back(t); });
    }
    queue.run_until(2.5);
    EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
    EXPECT_DOUBLE_EQ(queue.now(), 2.5);
    EXPECT_EQ(queue.size(), 2u);
}

TEST(EventQueue, RunUntilAdvancesClockWhenIdle) {
    EventQueue queue;
    queue.run_until(10.0);
    EXPECT_DOUBLE_EQ(queue.now(), 10.0);
}

TEST(EventQueue, SchedulingInThePastThrows) {
    EventQueue queue;
    queue.schedule_at(5.0, [] {});
    queue.run_until(5.0);
    EXPECT_THROW((void)queue.schedule_at(4.0, [] {}), std::invalid_argument);
}

TEST(EventQueue, NonFiniteTimesReportFiniteness) {
    // NaN fails every comparison, so it must be caught as non-finite
    // before the past-time check can misreport it.
    EventQueue queue;
    for (const SimTime when : {std::numeric_limits<SimTime>::quiet_NaN(),
                               std::numeric_limits<SimTime>::infinity(),
                               -std::numeric_limits<SimTime>::infinity()}) {
        try {
            (void)queue.schedule_at(when, [] {});
            ADD_FAILURE() << "schedule_at(" << when << ") did not throw";
        } catch (const std::invalid_argument& error) {
            EXPECT_NE(std::string(error.what()).find("event time must be finite"),
                      std::string::npos)
                << "schedule_at(" << when << "): " << error.what();
        }
    }
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, EventsCanScheduleMoreEvents) {
    EventQueue queue;
    std::vector<double> fired;
    queue.schedule_at(1.0, [&] {
        fired.push_back(queue.now());
        queue.schedule_at(2.0, [&] { fired.push_back(queue.now()); });
    });
    queue.run_until(5.0);
    EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
    EventQueue queue;
    const EventId early = queue.schedule_at(1.0, [] {});
    queue.schedule_at(2.0, [] {});
    queue.cancel(early);
    EXPECT_DOUBLE_EQ(queue.next_time(), 2.0);
}

TEST(EventQueue, NextTimeEmptyIsNegative) {
    EventQueue queue;
    EXPECT_LT(queue.next_time(), 0.0);
    queue.schedule_at(3.0, [] {});
    EXPECT_DOUBLE_EQ(queue.next_time(), 3.0);
}

TEST(EventQueue, NextTimeIsConstAndNonDestructive) {
    EventQueue queue;
    const EventId early = queue.schedule_at(1.0, [] {});
    queue.schedule_at(2.0, [] {});
    queue.cancel(early);
    // Peeking through a const reference must see past the cancelled head
    // without mutating the queue.
    const EventQueue& view = queue;
    EXPECT_DOUBLE_EQ(view.next_time(), 2.0);
    EXPECT_DOUBLE_EQ(view.next_time(), 2.0);
    EXPECT_EQ(view.size(), 1u);
    EXPECT_TRUE(queue.run_next());
    EXPECT_DOUBLE_EQ(queue.now(), 2.0);
}

TEST(EventQueue, StaleIdAfterSlotReuseIsNoOp) {
    EventQueue queue;
    const EventId first = queue.schedule_at(1.0, [] {});
    queue.cancel(first);
    // The slot is recycled for the next event, but under a new generation:
    // the stale handle must not cancel the newcomer.
    bool fired = false;
    const EventId second = queue.schedule_at(2.0, [&] { fired = true; });
    EXPECT_NE(first, second);
    queue.cancel(first);
    EXPECT_EQ(queue.size(), 1u);
    while (queue.run_next()) {
    }
    EXPECT_TRUE(fired);
}

TEST(EventQueue, IdsStayUniqueAcrossHeavyReuse) {
    EventQueue queue;
    std::set<EventId> ids;
    int fired = 0;
    for (int round = 0; round < 100; ++round) {
        const EventId keep =
            queue.schedule_at(queue.now() + 1.0, [&fired] { ++fired; });
        const EventId drop = queue.schedule_at(queue.now() + 2.0, [] {});
        EXPECT_TRUE(ids.insert(keep).second);
        EXPECT_TRUE(ids.insert(drop).second);
        queue.cancel(drop);
        EXPECT_TRUE(queue.run_next());
    }
    EXPECT_EQ(fired, 100);
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, LargeCaptureCallbacksRun) {
    // Callbacks bigger than the inline buffer fall back to heap storage;
    // both paths must deliver the capture intact.
    EventQueue queue;
    std::array<double, 32> payload{};
    for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = static_cast<double>(i);
    }
    double sum = 0.0;
    queue.schedule_at(1.0, [payload, &sum] {
        for (double v : payload) {
            sum += v;
        }
    });
    queue.schedule_at(2.0, [&sum] { sum += 1000.0; });
    while (queue.run_next()) {
    }
    EXPECT_DOUBLE_EQ(sum, 496.0 + 1000.0);
}

TEST(EventQueue, CancelledCallbackIsReleasedImmediately) {
    // Cancelling must drop the stored callable right away (it may own
    // resources), not wait for the tombstone to surface in the heap.
    EventQueue queue;
    auto token = std::make_shared<int>(7);
    std::weak_ptr<int> watch = token;
    const EventId id = queue.schedule_at(5.0, [token = std::move(token)] {});
    EXPECT_FALSE(watch.expired());
    queue.cancel(id);
    EXPECT_TRUE(watch.expired());
}

TEST(EventQueue, SizeTracksLiveEvents) {
    EventQueue queue;
    EXPECT_TRUE(queue.empty());
    const EventId a = queue.schedule_at(1.0, [] {});
    queue.schedule_at(2.0, [] {});
    EXPECT_EQ(queue.size(), 2u);
    queue.cancel(a);
    EXPECT_EQ(queue.size(), 1u);
    queue.run_next();
    EXPECT_TRUE(queue.empty());
}

}  // namespace
}  // namespace swarmavail::sim
