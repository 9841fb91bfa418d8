/**
 * @file
 * Private per-core L1 data cache (64KB, 2-way in the paper's setup).
 *
 * The L1 filters the hottest accesses out of the LLC stream. It is a
 * plain LRU set-associative cache; since associativity is tiny it is
 * implemented directly rather than via the ReplacementPolicy seam.
 */

#ifndef PRISM_CACHE_L1_CACHE_HH
#define PRISM_CACHE_L1_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/prism_assert.hh"
#include "common/types.hh"

namespace prism
{

/** Small private LRU cache; returns hit/miss per block access. */
class L1Cache
{
  public:
    /**
     * @param size_bytes Capacity (default 64KB).
     * @param ways Associativity (default 2).
     * @param block_bytes Block size (default 64B).
     */
    explicit L1Cache(std::uint64_t size_bytes = 64 << 10,
                     std::uint32_t ways = 2,
                     std::uint32_t block_bytes = 64)
        : ways_(ways)
    {
        const std::uint64_t blocks = size_bytes / block_bytes;
        fatalIf(ways_ == 0 || blocks % ways_ != 0,
                "L1Cache: bad geometry");
        num_sets_ = static_cast<std::uint32_t>(blocks / ways_);
        fatalIf((num_sets_ & (num_sets_ - 1)) != 0,
                "L1Cache: sets must be a power of two");
        tags_.assign(blocks, 0);
        valid_.assign(blocks, 0);
        stamp_.assign(blocks, 0);
    }

    /** Access block @p addr; true on hit (LRU state updated). */
    bool
    access(Addr addr)
    {
        const std::uint32_t set = addr & (num_sets_ - 1);
        const std::size_t base =
            static_cast<std::size_t>(set) * ways_;
        ++clock_;

        int victim = 0;
        std::uint64_t victim_stamp = ~0ull;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (valid_[base + w] && tags_[base + w] == addr) {
                stamp_[base + w] = clock_;
                ++hits_;
                return true;
            }
            const std::uint64_t s = valid_[base + w] ? stamp_[base + w]
                                                     : 0;
            if (s < victim_stamp) {
                victim_stamp = s;
                victim = static_cast<int>(w);
            }
        }

        ++misses_;
        tags_[base + victim] = addr;
        valid_[base + victim] = 1;
        stamp_[base + victim] = clock_;
        return false;
    }

    /**
     * Hint only: start loading the host cache lines a later
     * access(@p addr) reads (the set's tags, valid bits and
     * stamps). Changes no state.
     */
    void
    prefetch(Addr addr) const
    {
        const std::size_t base =
            static_cast<std::size_t>(addr & (num_sets_ - 1)) * ways_;
        __builtin_prefetch(tags_.data() + base);
        __builtin_prefetch(valid_.data() + base);
        __builtin_prefetch(stamp_.data() + base);
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    std::uint32_t ways_;
    std::uint32_t num_sets_;
    std::vector<Addr> tags_;
    std::vector<char> valid_;
    std::vector<std::uint64_t> stamp_;
    std::uint64_t clock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace prism

#endif // PRISM_CACHE_L1_CACHE_HH
