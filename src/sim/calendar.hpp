// Calendar/ladder priority structure: the event queue's hot path.
//
// A time-partitioned multi-list that replaces the binary heap. Near-future
// entries land in calendar buckets of adaptive width and are sorted lazily,
// only when their bucket becomes the active one; far-future entries wait in
// an unsorted overflow ladder that spills back into a fresh bucket window
// each time the calendar drains. Pop order is the exact total order by
// (when, seq) — bit-identical to a binary heap with the same tie-break —
// but push and pop are O(1) amortized instead of O(log n), and the entries
// are hot PODs: the callback payloads live in the owner's cold slab, so
// positioning scans never touch them.
//
// Ordering contract (why this equals the heap):
//  - routing is monotone: when_a < when_b implies bucket(a) <= bucket(b),
//    and equal times always share a bucket, so ties never straddle a
//    boundary; the ladder only holds entries routed past the window end;
//  - within the active bucket entries are served in sorted (when, seq)
//    order; entries scheduled mid-drain that route at or before the active
//    bucket are staged and merged in front of the cursor the moment their
//    time precedes the current head (equal times keep the older seq first,
//    so staging never reorders ties).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace swarmavail::sim {

/// Simulation time in seconds.
using SimTime = double;

/// Hot scheduling record: everything the positioning scans need, nothing
/// they don't. The callback payload lives in the owner's cold slab under
/// `slot`; the calendar never dereferences it.
struct CalendarEntry {
    SimTime when;        ///< absolute event time
    std::uint64_t seq;   ///< global schedule order; breaks `when` ties
    std::uint32_t slot;  ///< payload slot in the owner's slab
};

/// Strict total order over entries: time first, schedule order on ties.
[[nodiscard]] constexpr bool calendar_earlier(const CalendarEntry& a,
                                              const CalendarEntry& b) noexcept {
    if (a.when != b.when) {
        return a.when < b.when;
    }
    return a.seq < b.seq;
}

/// Lifetime introspection counters of one CalendarLadder. Pure structural
/// bookkeeping (plain integer increments on the cold regime-transition
/// paths, a size max at bucket activation); the counters never influence
/// routing or pop order. bench_event_queue publishes them as benchmark
/// counters so the regime transitions (adaptive vs small-ladder windows,
/// insertion vs re-sort merges) are visible next to its timings.
struct CalendarDebugStats {
    std::uint64_t rewindows = 0;        ///< window rebuilds from the ladder
    std::uint64_t small_rewindows = 0;  ///< of which took the small-ladder path
    std::uint64_t ladder_spills = 0;    ///< entries routed past the window
    std::uint64_t staged_merges = 0;    ///< staged batches merged mid-bucket
    std::uint64_t insertion_merges = 0; ///< of which spliced by insertion
    std::uint64_t max_bucket_occupancy = 0;  ///< largest bucket at activation
};

class CalendarLadder {
 public:
    /// Appends an entry. `entry.when` must be finite and no earlier than
    /// the `when` of the last entry popped (the owner's clock contract).
    void push(const CalendarEntry& entry);

    /// Positions the structure at the (when, seq)-minimal entry and
    /// returns a pointer to it, or nullptr when empty. Amortized O(1);
    /// may sort a newly activated bucket or rebuild the window from the
    /// ladder. The pointer is invalidated by any mutating call.
    [[nodiscard]] const CalendarEntry* peek();

    /// Removes and returns the entry the preceding peek() returned.
    /// peek() must have been called (and returned non-null) with no
    /// intervening mutation.
    CalendarEntry pop();

    [[nodiscard]] bool empty() const noexcept { return entries_ == 0; }

    /// Total stored entries, including any the owner has logically
    /// cancelled but not yet drained past.
    [[nodiscard]] std::size_t entries() const noexcept { return entries_; }

    /// Audit hook: visits every stored entry (active bucket from the
    /// cursor on, pending buckets, staged inserts, ladder) in an
    /// unspecified order.
    template <typename Fn>
    void for_each_entry(Fn&& fn) const {
        if (have_window_) {
            for (std::size_t b = cur_bucket_; b < num_buckets_; ++b) {
                const std::vector<CalendarEntry>& bucket = buckets_[b];
                for (std::size_t i = b == cur_bucket_ ? cursor_ : 0;
                     i < bucket.size(); ++i) {
                    fn(bucket[i]);
                }
            }
        }
        for (const CalendarEntry& entry : staged_) {
            fn(entry);
        }
        for (const CalendarEntry& entry : ladder_) {
            fn(entry);
        }
    }

    /// Audit-mode structural check: bucket routing and ladder-horizon
    /// bounds, active-bucket sort order, occupancy-bitmap consistency,
    /// staged-minimum cache, and the entry count. Throws CheckFailure on
    /// corruption.
    void audit_structure() const;

    /// Lifetime regime counters; see CalendarDebugStats.
    [[nodiscard]] const CalendarDebugStats& debug_stats() const noexcept {
        return stats_;
    }

 private:
    /// Sizing targets for the adaptive window: aim for kTargetPerBucket
    /// entries per bucket, with the bucket count a power of two in
    /// [kMinBuckets, kMaxBuckets] so the occupancy bitmap stays tiny.
    static constexpr std::size_t kTargetPerBucket = 4;
    static constexpr std::size_t kMinBuckets = 8;
    static constexpr std::size_t kMaxBuckets = 4096;
    /// Ladders at or below this size rewindow over their full span in one
    /// batch instead of the median-sized adaptive window; see rewindow().
    static constexpr std::size_t kSmallLadder = 32;
    /// Staged batches at or below this size splice into the active bucket
    /// by insertion instead of a full re-sort; see merge_staged().
    static constexpr std::size_t kSmallMerge = 4;

    void stage(const CalendarEntry& entry);
    /// Merges staged entries in front of the active cursor (sorted).
    void merge_staged();
    /// Promotes the staged entries to be the active bucket's content.
    void activate_staged();
    /// Rebuilds the bucket window from the ladder (adaptive width/count).
    void rewindow();
    /// Shared rewindow tail: routes the ladder into `num_buckets_` buckets
    /// of `width` starting at `lo` and positions the cursor.
    void build_window(SimTime lo, SimTime width);
    void sort_bucket(std::size_t index);

    void set_bit(std::size_t bucket) noexcept {
        occupancy_[bucket >> 6U] |= std::uint64_t{1} << (bucket & 63U);
    }
    void clear_bit(std::size_t bucket) noexcept {
        occupancy_[bucket >> 6U] &= ~(std::uint64_t{1} << (bucket & 63U));
    }
    [[nodiscard]] bool test_bit(std::size_t bucket) const noexcept {
        return (occupancy_[bucket >> 6U] >> (bucket & 63U) & 1U) != 0U;
    }
    /// First non-empty bucket at or after `from`, or num_buckets_ if none.
    [[nodiscard]] std::size_t next_occupied(std::size_t from) const noexcept;

    std::vector<std::vector<CalendarEntry>> buckets_;  ///< unsorted until active
    std::vector<std::uint64_t> occupancy_;  ///< one bit per non-empty bucket
    std::vector<CalendarEntry> staged_;     ///< inserts at/before the active bucket
    std::vector<CalendarEntry> ladder_;     ///< unsorted overflow past the window
    std::vector<CalendarEntry> scratch_;    ///< rewindow workspace (reused)
    SimTime win_start_ = 0.0;
    SimTime width_ = 1.0;
    SimTime inv_width_ = 1.0;
    SimTime staged_min_when_ = std::numeric_limits<SimTime>::infinity();
    std::size_t num_buckets_ = 0;
    std::size_t cur_bucket_ = 0;
    std::size_t cursor_ = 0;
    std::size_t entries_ = 0;
    CalendarDebugStats stats_;
    bool have_window_ = false;  ///< false: every entry lives in ladder_
};

}  // namespace swarmavail::sim
