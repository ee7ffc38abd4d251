// Heap-allocation counter of the benchmark binary: alloc_count.cpp replaces
// the global operator new, so the count covers the swarmavail libraries and
// the harness alike. Counting is off unless a probe turns it on; while off,
// an allocation costs one relaxed load more than plain malloc.
#pragma once

#include <cstdint>

namespace perfbench {

void set_alloc_counting(bool on) noexcept;
[[nodiscard]] std::uint64_t allocations() noexcept;

/// Counts the allocations made while it lives (by every thread).
class AllocScope {
 public:
    AllocScope() noexcept : start_(allocations()) { set_alloc_counting(true); }
    ~AllocScope() { set_alloc_counting(false); }
    AllocScope(const AllocScope&) = delete;
    AllocScope& operator=(const AllocScope&) = delete;

    [[nodiscard]] std::uint64_t count() const noexcept { return allocations() - start_; }

 private:
    std::uint64_t start_;
};

}  // namespace perfbench
