// Discrete-event simulation core: a time-ordered event queue with stable
// FIFO ordering for simultaneous events and O(1) logical cancellation.
//
// Scheduling runs on a binary min-heap of POD {when, seq, slot} records
// ordered by (when, seq). Storage is split hot/cold: the heap holds the
// records and the slot metadata (liveness, generation, free list) lives in
// its own packed array, while the SBO callbacks sit in a separate cold slab
// that the scheduling loop only touches at dispatch. cancel() flips a bit
// in the hot metadata -- no hash lookup anywhere on the schedule/pop path.
// Cancelled entries are drained from the heap top eagerly, so the top is
// always a live event and next_time() stays a const O(1) peek of a cached
// value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/fingerprint.hpp"
#include "util/inplace_function.hpp"

namespace swarmavail::sim {

/// Simulation time in seconds.
using SimTime = double;

/// Handle identifying a scheduled event; used to cancel it. Encodes the
/// slab slot and its generation, so a stale id (the event fired or its slot
/// was reused) can never cancel an unrelated event.
using EventId = std::uint64_t;

/// Event callback storage: inline up to 48 bytes of captures (enough for
/// every simulator in this repo), heap fallback beyond that.
using EventFn = InplaceFunction<void(), 48>;

/// Binary-heap event loop. Events scheduled for the same time fire in
/// scheduling order (sequence numbers break ties), which keeps simulations
/// deterministic for a fixed RNG seed.
class EventQueue {
 public:
    /// Schedules `action` at absolute time `when` (must be finite and
    /// >= now()). Returns an id usable with cancel().
    EventId schedule_at(SimTime when, EventFn action);

    /// Marks an event as cancelled and releases its callback immediately;
    /// the heap entry is dropped lazily. Cancelling an already-fired
    /// or unknown id is a no-op.
    void cancel(EventId id);

    /// Pops and runs the next event. Returns false when the queue is empty.
    bool run_next();

    /// Runs events until the queue empties or the next event is after
    /// `horizon`; events beyond the horizon stay queued.
    void run_until(SimTime horizon);

    /// Enables the invariant-audit mode: every pop re-verifies that event
    /// time is monotone and that the heap order and the slab/heap/free-list
    /// bookkeeping are consistent, throwing CheckFailure on corruption.
    /// Off by default (zero overhead).
    void set_audit(bool on) noexcept { audit_ = on; }
    [[nodiscard]] bool audit() const noexcept { return audit_; }

    [[nodiscard]] SimTime now() const noexcept { return now_; }
    [[nodiscard]] bool empty() const noexcept { return live_events_ == 0; }
    [[nodiscard]] std::size_t size() const noexcept { return live_events_; }

    /// Number of events dispatched (popped and run) over the queue's
    /// lifetime. Cancelled events are never dispatched and do not count.
    [[nodiscard]] std::uint64_t dispatched() const noexcept { return dispatched_; }

    /// Time of the next live event, or a negative value if none is queued.
    /// Pure peek: every mutator drains the heap down to a live top
    /// and refreshes this cache, so no draining (and no mutation) happens
    /// here.
    [[nodiscard]] SimTime next_time() const noexcept { return next_when_; }

#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
    /// Attaches a determinism fingerprint: every dispatch folds its
    /// (when, seq) into the chain (kind 0 — the queue has no event
    /// semantics). The fingerprint must outlive the queue or be detached
    /// (null) first. Pure observer; absent under the trace-off preset.
    void set_fingerprint(Fingerprint* fingerprint) noexcept {
        fingerprint_ = fingerprint;
    }
#endif

 private:
    /// Hot per-slot metadata, packed separately from the callbacks so
    /// liveness scans and free-list walks never page in payload storage.
    /// A slot is owned by exactly one heap entry from schedule to pop;
    /// `generation` invalidates stale EventIds once the slot is recycled.
    struct SlotMeta {
        std::uint32_t generation = 1;
        std::uint32_t next_free = kNoSlot;
        bool live = false;
    };

    /// Hot scheduling record; the callback lives in actions_[slot].
    struct Entry {
        SimTime when;        ///< absolute event time
        std::uint64_t seq;   ///< global schedule order; breaks `when` ties
        std::uint32_t slot;  ///< payload slot in the slab
    };

    /// Heap comparator: `a` fires after `b`. With it the std heap
    /// algorithms keep the (when, seq)-minimal entry at heap_.front().
    static bool later(const Entry& a, const Entry& b) noexcept {
        if (a.when != b.when) {
            return a.when > b.when;
        }
        return a.seq > b.seq;
    }

    static constexpr std::uint32_t kNoSlot = UINT32_MAX;

    [[nodiscard]] std::uint32_t acquire_slot();
    void release_slot(std::uint32_t index) noexcept;
    /// Removes the heap top and returns it.
    Entry pop_top() noexcept;
    /// Pops cancelled entries off the heap top so the top is always live,
    /// and refreshes the next_time() cache.
    void reposition();
    /// Audit-mode full consistency check of slab vs heap vs free list.
    void audit_bookkeeping() const;

    std::vector<Entry> heap_;        ///< hot POD scheduling records
    std::vector<SlotMeta> meta_;     ///< hot slot metadata
    std::vector<EventFn> actions_;   ///< cold payload slab; touched at dispatch
    std::uint32_t free_head_ = kNoSlot;
    SimTime now_ = 0.0;
    SimTime next_when_ = -1.0;       ///< cached next_time(); -1 when empty
    std::uint64_t next_seq_ = 0;
    std::uint64_t dispatched_ = 0;
    std::size_t live_events_ = 0;
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
    Fingerprint* fingerprint_ = nullptr;  ///< folds every dispatch when set
#endif
    bool audit_ = false;
};

}  // namespace swarmavail::sim
