#include "swarm/piece_set.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "util/check.hpp"
#include "util/random.hpp"

namespace swarmavail::swarm {
namespace {

TEST(PieceSet, StartsEmpty) {
    const PieceSet set{8};
    EXPECT_EQ(set.size(), 8u);
    EXPECT_EQ(set.count(), 0u);
    EXPECT_TRUE(set.empty());
    EXPECT_FALSE(set.is_complete());
    EXPECT_DOUBLE_EQ(set.fraction(), 0.0);
}

TEST(PieceSet, AddAndQuery) {
    PieceSet set{4};
    set.add(1);
    set.add(3);
    EXPECT_TRUE(set.has(1));
    EXPECT_TRUE(set.has(3));
    EXPECT_FALSE(set.has(0));
    EXPECT_EQ(set.count(), 2u);
    EXPECT_DOUBLE_EQ(set.fraction(), 0.5);
}

TEST(PieceSet, DoubleAddIsIdempotent) {
    PieceSet set{4};
    set.add(2);
    set.add(2);
    EXPECT_EQ(set.count(), 1u);
}

TEST(PieceSet, CompletionDetection) {
    PieceSet set{3};
    set.add(0);
    set.add(1);
    EXPECT_FALSE(set.is_complete());
    set.add(2);
    EXPECT_TRUE(set.is_complete());
    EXPECT_DOUBLE_EQ(set.fraction(), 1.0);
}

TEST(PieceSet, CompleteFactory) {
    const auto set = PieceSet::complete(5);
    EXPECT_TRUE(set.is_complete());
    EXPECT_EQ(set.count(), 5u);
    for (std::size_t p = 0; p < 5; ++p) {
        EXPECT_TRUE(set.has(p));
    }
}

TEST(PieceSet, BoundsChecking) {
    PieceSet set{2};
    EXPECT_THROW((void)set.has(2), std::invalid_argument);
    EXPECT_THROW(set.add(5), std::invalid_argument);
    EXPECT_THROW((PieceSet{0}), std::invalid_argument);
}

// ---- word-at-a-time scans ------------------------------------------------

// Sizes around the word boundaries: one partial word, one word short of
// full, exactly full, one bit into a second word, and three words.
constexpr std::size_t kScanSizes[] = {1, 63, 64, 65, 130};

/// A reproducible pseudo-random set: piece p is in it iff a hash of
/// (p, salt) has its low bit set, so every word mixes held and missing.
PieceSet patterned(std::size_t size, std::uint64_t salt) {
    PieceSet set{size};
    for (std::size_t p = 0; p < size; ++p) {
        std::uint64_t h = (p + 1) * 0x9E3779B97F4A7C15ULL ^ salt;
        h ^= h >> 29;
        if (((h * 0xBF58476D1CE4E5B9ULL) >> 61 & 1U) != 0) {
            set.add(p);
        }
    }
    return set;
}

using Scan = std::function<void(const std::function<void(std::size_t)>&)>;

/// Runs `scan`, checks its visits come in strictly ascending order inside
/// [0, size), and compares them with the pieces `expected` accepts.
void expect_scan(std::size_t size, const Scan& scan,
                 const std::function<bool(std::size_t)>& expected) {
    std::vector<std::size_t> visited;
    scan([&visited](std::size_t p) { visited.push_back(p); });
    for (std::size_t i = 0; i < visited.size(); ++i) {
        ASSERT_LT(visited[i], size) << "visited a tail bit";
        if (i > 0) {
            ASSERT_LT(visited[i - 1], visited[i]) << "visits out of order";
        }
    }
    std::vector<std::size_t> want;
    for (std::size_t p = 0; p < size; ++p) {
        if (expected(p)) {
            want.push_back(p);
        }
    }
    EXPECT_EQ(visited, want);
}

TEST(PieceSetScan, HeldAndMissingMatchPerPieceFilter) {
    for (const std::size_t size : kScanSizes) {
        SCOPED_TRACE(size);
        const PieceSet set = patterned(size, 1);
        const PieceSet none{size};
        const PieceSet all = PieceSet::complete(size);
        // The masked scan with nothing excluded and a complete mask visits
        // every missing piece.
        const auto missing = [&](const PieceSet& pieces) {
            return [&none, &all, &pieces = pieces](const auto& fn) {
                pieces.for_each_missing_masked(none, all, all, fn);
            };
        };
        expect_scan(size, [&](const auto& fn) { set.for_each_held(fn); },
                    [&](std::size_t p) { return set.has(p); });
        expect_scan(size, missing(set), [&](std::size_t p) { return !set.has(p); });
        // The extremes: an empty set misses exactly its own pieces, and a
        // complete one misses none (its tail bits stay invisible).
        expect_scan(size, missing(none), [](std::size_t) { return true; });
        expect_scan(size, missing(all), [](std::size_t) { return false; });
        expect_scan(size, [&](const auto& fn) { all.for_each_held(fn); },
                    [](std::size_t) { return true; });
    }
}

TEST(PieceSetScan, MissingMaskedMatchesPerPieceFilter) {
    for (const std::size_t size : kScanSizes) {
        SCOPED_TRACE(size);
        const PieceSet set = patterned(size, 4);
        const PieceSet excluded = patterned(size, 5);
        const PieceSet mask = patterned(size, 6);
        const PieceSet mask_too = patterned(size, 7);
        expect_scan(
            size,
            [&](const auto& fn) {
                set.for_each_missing_masked(excluded, mask, mask_too, fn);
            },
            [&](std::size_t p) {
                return !set.has(p) && !excluded.has(p) &&
                       (mask.has(p) || mask_too.has(p));
            });
        // A complete mask (either one) leaves the pieces missing from both
        // sets; an empty one given twice visits nothing.
        const PieceSet none{size};
        const PieceSet all = PieceSet::complete(size);
        expect_scan(
            size,
            [&](const auto& fn) { set.for_each_missing_masked(excluded, none, all, fn); },
            [&](std::size_t p) { return !set.has(p) && !excluded.has(p); });
        expect_scan(
            size,
            [&](const auto& fn) { set.for_each_missing_masked(excluded, all, none, fn); },
            [&](std::size_t p) { return !set.has(p) && !excluded.has(p); });
        expect_scan(
            size,
            [&](const auto& fn) {
                set.for_each_missing_masked(excluded, none, none, fn);
            },
            [](std::size_t) { return false; });
    }
}

TEST(PieceSetScan, SizeMismatchThrows) {
    const PieceSet set{65};
    const PieceSet other{64};
    const auto ignore = [](std::size_t) {};
    EXPECT_THROW(set.for_each_missing_masked(other, set, set, ignore),
                 std::invalid_argument);
    EXPECT_THROW(set.for_each_missing_masked(set, other, set, ignore),
                 std::invalid_argument);
    EXPECT_THROW(set.for_each_missing_masked(set, set, other, ignore),
                 std::invalid_argument);
}

// ---- bit-sliced counters ------------------------------------------------

/// Checks every per-piece count, the nonzero set and any() against a
/// plain per-piece reference.
void expect_counts(const PieceCounts& counts, const std::vector<std::uint32_t>& ref) {
    bool any = false;
    for (std::size_t p = 0; p < ref.size(); ++p) {
        ASSERT_EQ(counts.count(p), ref[p]) << "piece " << p;
        ASSERT_EQ(counts.nonzero().has(p), ref[p] > 0) << "piece " << p;
        any = any || ref[p] > 0;
    }
    EXPECT_EQ(counts.any(), any);
    EXPECT_EQ(counts.nonzero().recount(), counts.nonzero().count());
    EXPECT_TRUE(counts.nonzero_matches_planes());
}

TEST(PieceCounts, MatchesPerPieceReferenceUnderRandomUpdates) {
    for (const std::size_t size : kScanSizes) {
        SCOPED_TRACE(size);
        Rng rng{0x5eed0000 + size};
        PieceCounts counts{size};
        std::vector<std::uint32_t> ref(size, 0);
        expect_counts(counts, ref);
        for (int step = 0; step < 600; ++step) {
            // Adds outweigh removals for the first half, so counts climb
            // through several planes, then the second half drains them.
            const bool grow = rng.uniform() < (step < 300 ? 0.7 : 0.3);
            const bool whole_set = rng.uniform() < 0.6;
            if (grow && whole_set) {
                const PieceSet set = patterned(size, rng());
                bool was_zero = false;
                set.for_each_held([&](std::size_t p) { was_zero |= ref[p]++ == 0; });
                ASSERT_EQ(counts.add(set), was_zero);
            } else if (grow) {
                const std::size_t p = rng.uniform_index(size);
                ASSERT_EQ(counts.add(p), ref[p]++ == 0);
            } else if (whole_set) {
                // A random subset of the counted pieces.
                PieceSet set{size};
                for (std::size_t p = 0; p < size; ++p) {
                    if (ref[p] > 0 && rng.uniform() < 0.5) {
                        set.add(p);
                        --ref[p];
                    }
                }
                counts.remove(set);
            } else {
                const std::size_t p = rng.uniform_index(size);
                if (ref[p] == 0) {
                    continue;
                }
                counts.remove(p);
                --ref[p];
            }
            expect_counts(counts, ref);
        }
    }
}

TEST(PieceCounts, AddReportsOnlyPiecesNewlyCounted) {
    PieceCounts counts{65};
    PieceSet low{65};
    low.add(3);
    PieceSet both{65};
    both.add(3);
    both.add(64);
    EXPECT_TRUE(counts.add(low));
    EXPECT_FALSE(counts.add(low));  // 1 -> 2
    EXPECT_TRUE(counts.add(both));  // piece 64 is new, piece 3 is not
    EXPECT_FALSE(counts.add(3));
    EXPECT_TRUE(counts.add(10));
    EXPECT_FALSE(counts.add(PieceSet{65}));  // the empty set counts nothing
    EXPECT_EQ(counts.count(3), 4u);
    EXPECT_EQ(counts.count(64), 1u);
}

TEST(PieceCounts, UnderflowThrowsCheckFailure) {
    for (const std::size_t size : kScanSizes) {
        SCOPED_TRACE(size);
        PieceCounts counts{size};
        const std::size_t last = size - 1;
        EXPECT_THROW(counts.remove(last), CheckFailure);
        counts.add(last);
        counts.remove(last);
        EXPECT_THROW(counts.remove(last), CheckFailure);
        if (size > 1) {
            // A whole-set removal that reaches one zero count fails too.
            PieceSet set{size};
            set.add(0);
            set.add(last);
            counts.add(0);
            EXPECT_THROW(counts.remove(set), CheckFailure);  // `last` is at 0
        }
    }
}

TEST(PieceCounts, BoundsAndSizeChecking) {
    PieceCounts counts{64};
    EXPECT_THROW(counts.add(64), std::invalid_argument);
    EXPECT_THROW(counts.remove(64), std::invalid_argument);
    EXPECT_THROW((void)counts.count(64), std::invalid_argument);
    EXPECT_THROW(counts.add(PieceSet{65}), std::invalid_argument);
    EXPECT_THROW(counts.remove(PieceSet{63}), std::invalid_argument);
    EXPECT_THROW((PieceCounts{0}), std::invalid_argument);
}

}  // namespace
}  // namespace swarmavail::swarm
