// Piece bitmap of a BitTorrent peer: which pieces of the content a peer
// holds. Mirrors the protocol bitfield our measurement agents record to
// distinguish seeds from leechers (Section 2.2).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace swarmavail::swarm {

/// Fixed-size piece bitmap with O(1) count queries.
///
/// Stored as packed 64-bit words so the rarest-first scans of the swarm
/// simulator can enumerate held/missing pieces a word at a time, skipping
/// fully-held words outright instead of probing every piece. Bitmaps of up
/// to 64 pieces -- the common simulator shape -- live in a single inline
/// word, so a peer's have/in-flight scans touch no storage beyond the
/// object itself; larger bitmaps spill to the heap.
class PieceSet {
 public:
    /// Creates an all-empty set over `num_pieces` pieces (>= 1).
    explicit PieceSet(std::size_t num_pieces);

    /// Creates a complete set (a seed's bitmap).
    [[nodiscard]] static PieceSet complete(std::size_t num_pieces);

    // has/add/remove live in the header: they sit inside the simulator's
    // rarest-first scan, where the call overhead would rival the bit test.
    [[nodiscard]] bool has(std::size_t piece) const {
        require(piece < num_pieces_, "PieceSet::has: piece index out of range");
        return ((words()[piece / kWordBits] >> (piece % kWordBits)) & 1U) != 0;
    }

    /// Marks `piece` owned. Adding an owned piece is a no-op.
    void add(std::size_t piece) {
        require(piece < num_pieces_, "PieceSet::add: piece index out of range");
        const std::uint64_t bit = std::uint64_t{1} << (piece % kWordBits);
        std::uint64_t& word = words()[piece / kWordBits];
        if ((word & bit) == 0) {
            word |= bit;
            ++count_;
        }
    }

    /// Clears `piece`. Removing an unowned piece is a no-op. (Peers never
    /// lose content pieces; this serves bitmap-backed scratch sets such as
    /// the in-flight fetch set.)
    void remove(std::size_t piece) {
        require(piece < num_pieces_, "PieceSet::remove: piece index out of range");
        const std::uint64_t bit = std::uint64_t{1} << (piece % kWordBits);
        std::uint64_t& word = words()[piece / kWordBits];
        if ((word & bit) != 0) {
            word &= ~bit;
            --count_;
        }
    }

    [[nodiscard]] std::size_t size() const noexcept { return num_pieces_; }
    [[nodiscard]] std::size_t count() const noexcept { return count_; }
    [[nodiscard]] bool is_complete() const noexcept { return count_ == num_pieces_; }
    [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

    /// Recomputes the owned-piece count from the bitmap in O(pieces / 64).
    /// The invariant-audit mode compares this against count() to catch a
    /// bitmap and counter that drifted apart.
    [[nodiscard]] std::size_t recount() const noexcept;

    /// Fraction of pieces owned, in [0, 1].
    [[nodiscard]] double fraction() const noexcept {
        return num_pieces_ == 0
                   ? 0.0
                   : static_cast<double>(count_) / static_cast<double>(num_pieces_);
    }

    /// Invokes fn(piece) for every owned piece in ascending index order.
    /// fn must not mutate this set.
    template <typename Fn>
    void for_each_held(Fn&& fn) const {
        const std::uint64_t* w = words();
        for_each_bit([w](std::size_t wi) { return w[wi]; }, fn);
    }

    /// Invokes fn(piece) in ascending index order for every piece missing
    /// here, absent from `excluded`, and present in `mask` or `mask_too`
    /// (all sets the same size): the swarm simulator's walk over a peer's
    /// obtainable pieces, where a word with none costs one AND. fn must not
    /// mutate these sets.
    template <typename Fn>
    void for_each_missing_masked(const PieceSet& excluded, const PieceSet& mask,
                                 const PieceSet& mask_too, Fn&& fn) const {
        require(excluded.num_pieces_ == num_pieces_ && mask.num_pieces_ == num_pieces_ &&
                    mask_too.num_pieces_ == num_pieces_,
                "PieceSet::for_each_missing_masked: size mismatch");
        const std::uint64_t* w = words();
        const std::uint64_t* x = excluded.words();
        const std::uint64_t* m = mask.words();
        const std::uint64_t* m2 = mask_too.words();
        for_each_bit(
            [w, x, m, m2](std::size_t wi) { return ~(w[wi] | x[wi]) & (m[wi] | m2[wi]); },
            fn);
    }

 private:
    friend class PieceCounts;  // keeps its nonzero() set a word at a time

    static constexpr std::size_t kWordBits = 64;

    /// Mask of the valid bits in the last word (all-ones when the piece
    /// count is a multiple of 64).
    [[nodiscard]] std::uint64_t tail_mask() const noexcept {
        const std::size_t tail = num_pieces_ % kWordBits;
        return tail == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << tail) - 1;
    }

    [[nodiscard]] std::size_t num_words() const noexcept {
        return (num_pieces_ + kWordBits - 1) / kWordBits;
    }

    /// The scans' shared loop: invokes fn(piece) for every set bit of
    /// word_at(0), word_at(1), ... in ascending order. Bits past the last
    /// piece are masked off, so word_at may complement freely.
    template <typename WordAt, typename Fn>
    void for_each_bit(WordAt word_at, Fn& fn) const {
        const std::size_t last = num_words() - 1;
        for (std::size_t wi = 0; wi <= last; ++wi) {
            std::uint64_t word = word_at(wi);
            if (wi == last) {
                word &= tail_mask();
            }
            while (word != 0) {
                const auto bit = static_cast<std::size_t>(std::countr_zero(word));
                fn(wi * kWordBits + bit);
                word &= word - 1;
            }
        }
    }

    // Storage accessors: one inline word when the bitmap fits (heap_words_
    // stays empty), a heap vector otherwise. The discriminator is the
    // vector itself, so the object carries no extra flag.
    [[nodiscard]] std::uint64_t* words() noexcept {
        return heap_words_.empty() ? &inline_word_ : heap_words_.data();
    }
    [[nodiscard]] const std::uint64_t* words() const noexcept {
        return heap_words_.empty() ? &inline_word_ : heap_words_.data();
    }

    std::uint64_t inline_word_ = 0;
    std::vector<std::uint64_t> heap_words_;  ///< used only when > 64 pieces
    std::size_t num_pieces_ = 0;
    std::size_t count_ = 0;
};

/// Per-piece counters over a fixed piece range, stored bit-sliced: plane b
/// holds bit b of every piece's count, one word per 64 pieces. Adding or
/// subtracting a whole PieceSet is then a ripple carry over words and
/// planes -- O(words x planes) -- instead of a loop over its pieces. Planes
/// are appended as the largest count grows; a range of up to 64 pieces uses
/// one word per plane. nonzero() is the OR of the planes: the pieces whose
/// count is positive, as a PieceSet the word-at-a-time scans can mask with.
class PieceCounts {
 public:
    /// Creates all-zero counters over `num_pieces` pieces (>= 1).
    explicit PieceCounts(std::size_t num_pieces);

    /// Adds one to the count of every piece in `set` (same size). Returns
    /// true iff some piece's count went from 0 to 1.
    bool add(const PieceSet& set) {
        require(set.size() == nonzero_.size(), "PieceCounts::add: size mismatch");
        const std::uint64_t* w = set.words();
        std::uint64_t fresh = 0;
        for (std::size_t wi = 0; wi < num_words_; ++wi) {
            fresh |= add_word(wi, w[wi]);
        }
        return fresh != 0;
    }

    /// Adds one to the count of `piece`. Returns true iff it was 0.
    bool add(std::size_t piece) {
        require(piece < nonzero_.size(), "PieceCounts::add: piece index out of range");
        return add_word(piece / kWordBits, bit_of(piece)) != 0;
    }

    /// Subtracts one from the count of every piece in `set` (same size).
    /// Throws CheckFailure if any of those counts is already 0.
    void remove(const PieceSet& set) {
        require(set.size() == nonzero_.size(), "PieceCounts::remove: size mismatch");
        const std::uint64_t* w = set.words();
        for (std::size_t wi = 0; wi < num_words_; ++wi) {
            remove_word(wi, w[wi]);
        }
    }

    /// Subtracts one from the count of `piece`. Throws CheckFailure if it
    /// is already 0.
    void remove(std::size_t piece) {
        require(piece < nonzero_.size(), "PieceCounts::remove: piece index out of range");
        remove_word(piece / kWordBits, bit_of(piece));
    }

    /// The count of `piece`, read back from the planes in O(planes).
    [[nodiscard]] std::uint64_t count(std::size_t piece) const;

    /// Pieces with a positive count.
    [[nodiscard]] const PieceSet& nonzero() const noexcept { return nonzero_; }

    /// Whether any piece has a positive count.
    [[nodiscard]] bool any() const noexcept { return !nonzero_.empty(); }

    /// Recomputes the OR of the planes and compares it with nonzero(): the
    /// invariant-audit mode's check that the two have not drifted apart.
    [[nodiscard]] bool nonzero_matches_planes() const noexcept;

 private:
    static constexpr std::size_t kWordBits = PieceSet::kWordBits;

    [[nodiscard]] static std::uint64_t bit_of(std::size_t piece) noexcept {
        return std::uint64_t{1} << (piece % kWordBits);
    }

    /// Adds the pieces of `bits` (a mask over word wi) and returns those
    /// whose count was 0.
    std::uint64_t add_word(std::size_t wi, std::uint64_t bits) {
        std::uint64_t& nonzero = nonzero_.words()[wi];
        const std::uint64_t fresh = bits & ~nonzero;
        nonzero |= bits;
        nonzero_.count_ += static_cast<std::size_t>(std::popcount(fresh));
        std::uint64_t carry = bits;
        for (std::size_t plane = 0; carry != 0; ++plane) {
            if (plane == num_planes_) {
                planes_.resize(planes_.size() + num_words_, 0);
                ++num_planes_;
            }
            std::uint64_t& word = planes_[plane * num_words_ + wi];
            const std::uint64_t next = word & carry;
            word ^= carry;
            carry = next;
        }
        return fresh;
    }

    /// Subtracts the pieces of `bits` (a mask over word wi), then rebuilds
    /// that word of nonzero_ from the planes.
    void remove_word(std::size_t wi, std::uint64_t bits) {
        std::uint64_t& nonzero = nonzero_.words()[wi];
        ensure((bits & ~nonzero) == 0, "PieceCounts: count underflow");
        std::uint64_t borrow = bits;
        std::uint64_t remaining = 0;
        for (std::size_t plane = 0; plane < num_planes_; ++plane) {
            std::uint64_t& word = planes_[plane * num_words_ + wi];
            const std::uint64_t next = ~word & borrow;
            word ^= borrow;
            borrow = next;
            remaining |= word;
        }
        nonzero_.count_ -= static_cast<std::size_t>(std::popcount(nonzero ^ remaining));
        nonzero = remaining;
    }

    PieceSet nonzero_;
    std::size_t num_words_ = 0;
    std::size_t num_planes_ = 0;
    std::vector<std::uint64_t> planes_;  ///< plane-major: plane b at b * num_words_
};

}  // namespace swarmavail::swarm
