#include "sim/event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/audit.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/observe.hpp"
#include "util/profile.hpp"

namespace swarmavail::sim {
namespace {

constexpr EventId make_id(std::uint32_t generation, std::uint32_t slot) noexcept {
    return (static_cast<EventId>(generation) << 32U) | slot;
}

constexpr std::uint32_t id_slot(EventId id) noexcept {
    return static_cast<std::uint32_t>(id & 0xFFFFFFFFULL);
}

constexpr std::uint32_t id_generation(EventId id) noexcept {
    return static_cast<std::uint32_t>(id >> 32U);
}

}  // namespace

std::uint32_t EventQueue::acquire_slot() {
    if (free_head_ != kNoSlot) {
        const std::uint32_t index = free_head_;
        free_head_ = meta_[index].next_free;
        meta_[index].next_free = kNoSlot;
        return index;
    }
    meta_.emplace_back();
    actions_.emplace_back();
    return static_cast<std::uint32_t>(meta_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t index) noexcept {
    actions_[index].reset();
    SlotMeta& meta = meta_[index];
    meta.live = false;
    ++meta.generation;  // invalidates every EventId handed out for this slot
    meta.next_free = free_head_;
    free_head_ = index;
}

EventQueue::Entry EventQueue::pop_top() noexcept {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const Entry top = heap_.back();
    heap_.pop_back();
    return top;
}

void EventQueue::reposition() {
    while (!heap_.empty() && !meta_[heap_.front().slot].live) {
        release_slot(pop_top().slot);
    }
    if (heap_.empty()) {
        next_when_ = -1.0;
        return;
    }
    next_when_ = heap_.front().when;
    // The next dispatch will read this action; warming the line here
    // overlaps the miss with whatever runs between now and then.
    __builtin_prefetch(&actions_[heap_.front().slot]);
}

EventId EventQueue::schedule_at(SimTime when, EventFn action) {
    // Finiteness first: NaN fails every comparison, so the past-time check
    // would misreport it.
    require(std::isfinite(when), "EventQueue::schedule_at: event time must be finite");
    require(when >= now_, "EventQueue::schedule_at: cannot schedule in the past");
    const std::uint32_t slot = acquire_slot();
    actions_[slot] = std::move(action);
    meta_[slot].live = true;
    heap_.push_back(Entry{when, next_seq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), later);
    ++live_events_;
    // The new entry is live, so the cached head only ever moves earlier.
    if (next_when_ < 0.0 || when < next_when_) {
        next_when_ = when;
    }
    return make_id(meta_[slot].generation, slot);
}

void EventQueue::cancel(EventId id) {
    const std::uint32_t slot = id_slot(id);
    if (slot >= meta_.size()) {
        return;
    }
    SlotMeta& meta = meta_[slot];
    if (!meta.live || meta.generation != id_generation(id)) {
        return;  // already fired, already cancelled, or a recycled slot
    }
    meta.live = false;
    actions_[slot].reset();  // release captured resources eagerly
    --live_events_;
    reposition();  // keep the head live for const next_time()
}

bool EventQueue::run_next() {
    if (live_events_ == 0) {
        return false;
    }
    // Inclusive of the dispatched action: "event dispatch" is the pop plus
    // whatever handler work the event triggers.
    SWARMAVAIL_PROF_SCOPE("sim.event_dispatch");
    // reposition() left a live entry on top of the heap.
    if (audit_) {
        audit::check_monotone_time(now_, heap_.front().when);
        audit_bookkeeping();
    }
    const Entry entry = pop_top();
    EventFn action = std::move(actions_[entry.slot]);
    release_slot(entry.slot);
    --live_events_;
    reposition();
    now_ = entry.when;
    ++dispatched_;
    SWARMAVAIL_OBSERVE(fingerprint_, fold_event(entry.when, entry.seq, 0U));
    action();
    return true;
}

void EventQueue::run_until(SimTime horizon) {
    while (live_events_ != 0 && next_when_ <= horizon) {
        run_next();
    }
    if (horizon > now_) {
        now_ = horizon;
    }
}

void EventQueue::audit_bookkeeping() const {
    SWARMAVAIL_INVARIANT(std::is_heap(heap_.begin(), heap_.end(), later),
                         "EventQueue: heap order violated");
    // Every live slot is counted exactly once by live_events_.
    std::size_t live_slots = 0;
    for (const SlotMeta& meta : meta_) {
        if (meta.live) {
            ++live_slots;
        }
    }
    SWARMAVAIL_INVARIANT(live_slots == live_events_,
                         "EventQueue: live-event count out of sync with the slab");
    // Each heap entry owns a distinct in-range slot.
    std::vector<bool> owned(meta_.size(), false);
    for (const Entry& entry : heap_) {
        SWARMAVAIL_INVARIANT(entry.slot < meta_.size(),
                             "EventQueue: heap entry references an out-of-range slot");
        SWARMAVAIL_INVARIANT(!owned[entry.slot],
                             "EventQueue: two heap entries share one slot");
        owned[entry.slot] = true;
    }
    // The free list and the heap partition the slab.
    std::size_t free_slots = 0;
    for (std::uint32_t cursor = free_head_; cursor != kNoSlot;
         cursor = meta_[cursor].next_free) {
        SWARMAVAIL_INVARIANT(
            cursor < meta_.size() && !meta_[cursor].live && !owned[cursor],
            "EventQueue: free list holds a live or heap-owned slot");
        ++free_slots;
        SWARMAVAIL_INVARIANT(free_slots <= meta_.size(),
                             "EventQueue: free list cycle detected");
    }
    SWARMAVAIL_INVARIANT(heap_.size() + free_slots == meta_.size(),
                         "EventQueue: heap and free list do not partition the slab");
    // Eager draining keeps a live entry on top whenever one exists, and
    // the cached next_time() mirrors it.
    if (live_events_ > 0) {
        SWARMAVAIL_INVARIANT(!heap_.empty() && meta_[heap_.front().slot].live,
                             "EventQueue: heap top is not a live event");
        SWARMAVAIL_INVARIANT(next_when_ == heap_.front().when,
                             "EventQueue: cached next_time out of sync");
    } else {
        SWARMAVAIL_INVARIANT(next_when_ < 0.0,
                             "EventQueue: cached next_time set on an empty queue");
    }
}

}  // namespace swarmavail::sim
