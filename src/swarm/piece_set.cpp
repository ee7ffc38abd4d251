#include "swarm/piece_set.hpp"

#include "util/error.hpp"

namespace swarmavail::swarm {

PieceSet::PieceSet(std::size_t num_pieces) : num_pieces_(num_pieces) {
    require(num_pieces >= 1, "PieceSet: requires at least one piece");
    if (num_words() > 1) {
        heap_words_.assign(num_words(), 0);
    }
}

PieceSet PieceSet::complete(std::size_t num_pieces) {
    PieceSet set{num_pieces};
    std::uint64_t* w = set.words();
    for (std::size_t wi = 0; wi < set.num_words(); ++wi) {
        w[wi] = ~std::uint64_t{0};
    }
    w[set.num_words() - 1] &= set.tail_mask();
    set.count_ = num_pieces;
    return set;
}

std::size_t PieceSet::recount() const noexcept {
    std::size_t owned = 0;
    const std::uint64_t* w = words();
    for (std::size_t wi = 0; wi < num_words(); ++wi) {
        owned += static_cast<std::size_t>(std::popcount(w[wi]));
    }
    return owned;
}

PieceCounts::PieceCounts(std::size_t num_pieces)
    : nonzero_(num_pieces), num_words_(nonzero_.num_words()) {
    // Eight planes (counts up to 255) fit before appending one reallocates.
    planes_.reserve(8 * num_words_);
}

std::uint64_t PieceCounts::count(std::size_t piece) const {
    require(piece < nonzero_.size(), "PieceCounts::count: piece index out of range");
    const std::size_t wi = piece / kWordBits;
    const std::size_t shift = piece % kWordBits;
    std::uint64_t value = 0;
    for (std::size_t plane = 0; plane < num_planes_; ++plane) {
        value |= ((planes_[plane * num_words_ + wi] >> shift) & 1U) << plane;
    }
    return value;
}

bool PieceCounts::nonzero_matches_planes() const noexcept {
    const std::uint64_t* nonzero = nonzero_.words();
    for (std::size_t wi = 0; wi < num_words_; ++wi) {
        std::uint64_t any = 0;
        for (std::size_t plane = 0; plane < num_planes_; ++plane) {
            any |= planes_[plane * num_words_ + wi];
        }
        if (any != nonzero[wi]) {
            return false;
        }
    }
    return true;
}

}  // namespace swarmavail::swarm
