/**
 * @file
 * Cache block metadata (structure-of-arrays) and per-set state.
 *
 * Every block in the shared LLC is tagged with the core (program)
 * that brought it in — the bookkeeping the paper notes is common to
 * all cache-partitioning schemes. The metadata is packed as a
 * structure of arrays (BlockArrays): one contiguous array per field,
 * so the hot lookup walks 8-byte tags (and 1-byte signatures) back to
 * back instead of striding over 24-byte per-block structs — a 16-way
 * tag scan touches 2 cache lines instead of 6, a 64-way scan 8
 * instead of 24. Owners are stored as one byte (noOwner for a frame
 * no core holds), so the victim walk reads a 64-way set's owners from
 * one cache line instead of four; CoreId stays the type every
 * interface takes and returns, and a cache holds at most maxCores
 * cores. Policies and schemes keep field-access syntax
 * (`set.blocks[w].owner`) through the BlockRef proxy.
 *
 * Replacement-policy state lives in two places: an explicit per-set
 * recency list (exact orderings for LRU / DIP / PIPP), stored inline
 * in SetState with no per-set heap allocation, and an 8-bit coarse
 * timestamp per block (timestamp-LRU, used by the Vantage
 * comparison).
 *
 * The AoS `CacheBlock` struct survives as the *reference model*
 * layout: tests/test_soa_equivalence.cc re-implements the cache over
 * per-block structs and cross-checks the SoA cache block by block.
 */

#ifndef PRISM_CACHE_CACHE_BLOCK_HH
#define PRISM_CACHE_CACHE_BLOCK_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <ostream>
#include <span>
#include <vector>

#include "common/prism_assert.hh"
#include "common/types.hh"

namespace prism
{

/** Region tags used by Vantage-style schemes. */
enum : std::uint8_t
{
    regionManaged = 0,
    regionUnmanaged = 1,
};

/** Tag value of a never-filled frame (no valid block ever has it). */
inline constexpr Addr invalidTag = ~Addr{0};

/** Owner byte of a frame no core holds. */
inline constexpr std::uint8_t noOwner = 0xFF;

/** Most cores a cache can tag: every real owner byte is below noOwner. */
inline constexpr std::uint32_t maxCores = noOwner;

/**
 * Metadata for one cache block as a plain struct (the data payload
 * is not modelled). Not used by SharedCache itself — the hot path
 * runs on BlockArrays — but kept as the layout of the reference
 * model the SoA equivalence tests cross-check against.
 */
struct CacheBlock
{
    Addr tag = 0;               ///< full block address
    CoreId owner = invalidCore; ///< core whose miss filled the block
    bool valid = false;
    bool dirty = false;         ///< written since fill (writebacks)
    std::uint8_t timestamp = 0; ///< coarse 8-bit timestamp (TS-LRU)
    std::uint8_t region = regionManaged; ///< Vantage region tag
    std::uint8_t rrpv = 0;      ///< re-reference prediction (RRIP)
};

/**
 * Mutable view of one block's fields inside a BlockArrays. Field
 * names and value semantics match CacheBlock, so policy code reads
 * identically over either layout; valid/dirty are 0/1 bytes, and the
 * owner is a byte that reads noOwner where CacheBlock has invalidCore.
 */
struct BlockRef
{
    Addr &tag;
    std::uint8_t &owner; ///< owning core, noOwner if none
    std::uint8_t &valid;
    std::uint8_t &dirty;
    std::uint8_t &timestamp;
    std::uint8_t &region;
    std::uint8_t &rrpv;
};

/** Per-field metadata arrays for a run of block frames. */
struct BlockArrays
{
    std::vector<Addr> tag;
    std::vector<std::uint8_t> owner; ///< one byte per frame
    std::vector<std::uint8_t> valid;
    std::vector<std::uint8_t> dirty;
    std::vector<std::uint8_t> timestamp;
    std::vector<std::uint8_t> region;
    std::vector<std::uint8_t> rrpv;

    BlockArrays() = default;
    explicit BlockArrays(std::size_t n) { resize(n); }

    /** Frames held (every field array has this length). */
    std::size_t size() const { return tag.size(); }

    /**
     * Resize every field to @p n frames, new frames invalid: the
     * never-filled sentinel tag, no owner, zeroed policy state.
     */
    void
    resize(std::size_t n)
    {
        tag.assign(n, invalidTag);
        owner.assign(n, noOwner);
        valid.assign(n, 0);
        dirty.assign(n, 0);
        timestamp.assign(n, 0);
        region.assign(n, regionManaged);
        rrpv.assign(n, 0);
    }

    BlockRef
    operator[](std::size_t i)
    {
        return BlockRef{tag[i],       owner[i],  valid[i], dirty[i],
                        timestamp[i], region[i], rrpv[i]};
    }
};

/**
 * A borrowed window of @c ways consecutive frames of a BlockArrays —
 * what SetView hands to policies. Indexing yields BlockRef proxies;
 * the raw field pointers are public for hot loops that want to scan
 * one field contiguously.
 */
struct SetBlocks
{
    Addr *tag = nullptr;
    std::uint8_t *owner = nullptr;
    std::uint8_t *valid = nullptr;
    std::uint8_t *dirty = nullptr;
    std::uint8_t *timestamp = nullptr;
    std::uint8_t *region = nullptr;
    std::uint8_t *rrpv = nullptr;
    std::uint32_t ways = 0;

    SetBlocks() = default;

    SetBlocks(BlockArrays &arrays, std::size_t base,
              std::uint32_t num_ways)
        : tag(arrays.tag.data() + base),
          owner(arrays.owner.data() + base),
          valid(arrays.valid.data() + base),
          dirty(arrays.dirty.data() + base),
          timestamp(arrays.timestamp.data() + base),
          region(arrays.region.data() + base),
          rrpv(arrays.rrpv.data() + base), ways(num_ways)
    {
    }

    std::size_t size() const { return ways; }

    BlockRef
    operator[](std::size_t w) const
    {
        return BlockRef{tag[w],       owner[w],  valid[w], dirty[w],
                        timestamp[w], region[w], rrpv[w]};
    }
};

/**
 * The per-set recency list: way indices from MRU (front) to LRU
 * (back), fixed-capacity inline storage (no per-set heap allocation,
 * no pointer chase on the hit path). The interface mirrors the
 * std::vector subset the recency helpers and policies use.
 */
class OrderList
{
  public:
    static constexpr std::uint32_t maxWays = 64;

    using iterator = std::uint16_t *;
    using const_iterator = const std::uint16_t *;
    using reverse_iterator = std::reverse_iterator<const_iterator>;

    iterator begin() { return data_; }
    iterator end() { return data_ + size_; }
    const_iterator begin() const { return data_; }
    const_iterator end() const { return data_ + size_; }
    reverse_iterator rbegin() const
    {
        return reverse_iterator(end());
    }
    reverse_iterator rend() const { return reverse_iterator(begin()); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    void clear() { size_ = 0; }

    std::uint16_t operator[](std::size_t i) const { return data_[i]; }
    std::uint16_t &operator[](std::size_t i) { return data_[i]; }
    std::uint16_t front() const { return data_[0]; }
    std::uint16_t back() const { return data_[size_ - 1]; }

    void
    push_back(std::uint16_t v)
    {
        panicIf(size_ >= maxWays, "OrderList: capacity exceeded");
        data_[size_++] = v;
    }

    /** Remove the entry at @p it (preserving order). */
    void
    erase(const_iterator it)
    {
        const auto pos = static_cast<std::size_t>(it - data_);
        std::memmove(data_ + pos, data_ + pos + 1,
                     (size_ - pos - 1) * sizeof(std::uint16_t));
        --size_;
    }

    /** Insert @p v before @p it (preserving order). */
    void
    insert(const_iterator it, std::uint16_t v)
    {
        panicIf(size_ >= maxWays, "OrderList: capacity exceeded");
        const auto pos = static_cast<std::size_t>(it - data_);
        std::memmove(data_ + pos + 1, data_ + pos,
                     (size_ - pos) * sizeof(std::uint16_t));
        data_[pos] = v;
        ++size_;
    }

    friend bool
    operator==(const OrderList &a,
               const std::vector<std::uint16_t> &b)
    {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

    friend bool
    operator==(const std::vector<std::uint16_t> &a,
               const OrderList &b)
    {
        return b == a;
    }

    friend bool
    operator==(const OrderList &a, const OrderList &b)
    {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

    friend std::ostream &
    operator<<(std::ostream &os, const OrderList &o)
    {
        os << "[";
        for (std::size_t i = 0; i < o.size(); ++i)
            os << (i ? " " : "") << o[i];
        return os << "]";
    }

  private:
    std::uint16_t size_ = 0;
    std::uint16_t data_[maxWays];
};

/**
 * Per-set replacement state.
 *
 * @c order lists way indices from MRU (front) to LRU (back); only
 * valid ways appear in it. @c accesses counts set accesses to drive
 * coarse-timestamp aging. The counter sits first so the hit path's
 * touch of (accesses, leading order entries) lands in one cache
 * line.
 */
struct SetState
{
    std::uint32_t accesses = 0;
    OrderList order;
};

/** A borrowed view of one cache set, handed to policies/schemes. */
struct SetView
{
    std::uint32_t setIdx;
    SetBlocks blocks;
    SetState &state;

    std::size_t ways() const { return blocks.size(); }
};

/**
 * Coarse 8-bit timestamp helpers shared by the timestamp-LRU
 * replacement policy and Vantage (which ranks demotion candidates by
 * the same wrapped age).
 */
namespace coarse_ts
{

/** Aging quantum: one timestamp tick per 2^shift set accesses. */
inline constexpr unsigned shift = 2;

/** Current stamp of the set. */
inline std::uint8_t
stamp(const SetView &set)
{
    return static_cast<std::uint8_t>(set.state.accesses >> shift);
}

/** Wrapped age of @p way relative to the set's current stamp. */
inline unsigned
age(const SetView &set, int way)
{
    return static_cast<std::uint8_t>(
        stamp(set) -
        set.blocks.timestamp[static_cast<std::size_t>(way)]);
}

/** Touch @p way: advance the set clock and restamp the block. */
inline void
touch(const SetView &set, int way)
{
    ++set.state.accesses;
    set.blocks.timestamp[static_cast<std::size_t>(way)] = stamp(set);
}

} // namespace coarse_ts

/**
 * Manipulation helpers for the per-set recency list. Kept free so
 * both ReplacementPolicy implementations and integrated schemes like
 * PIPP (which inserts at arbitrary stack positions) can share them.
 */
namespace recency
{

/** Position of @p way in the order list, or -1 if absent. */
inline int
find(const SetState &st, int way)
{
    const std::size_t n = st.order.size();
    if constexpr (std::endian::native == std::endian::little) {
        // SWAR scan: four 16-bit entries per 64-bit load. The
        // zero-lane detector below is exact for the *lowest* matching
        // lane (borrows only propagate upward), which is the one we
        // want: the first match in list order. Entries are way
        // indices < maxWays, so no lane ever has its high bit set and
        // upward borrows cannot fabricate a lower match. The inline
        // array is maxWays entries long, so whole-word loads past
        // size() stay in bounds; a lane mask discards stale entries.
        const std::uint16_t *d = st.order.begin();
        const std::uint64_t pat = 0x0001000100010001ULL *
                                  static_cast<std::uint16_t>(way);
        for (std::size_t i = 0; i < n; i += 4) {
            std::uint64_t v;
            std::memcpy(&v, d + i, sizeof(v));
            v ^= pat;
            std::uint64_t m = (v - 0x0001000100010001ULL) & ~v &
                              0x8000800080008000ULL;
            if (n - i < 4)
                m &= (std::uint64_t{1} << (16 * (n - i))) - 1;
            if (m) {
                const std::size_t lane =
                    static_cast<std::size_t>(std::countr_zero(m)) / 16;
                return static_cast<int>(i + lane);
            }
        }
        return -1;
    }
    for (std::size_t i = 0; i < n; ++i)
        if (st.order[i] == way)
            return static_cast<int>(i);
    return -1;
}

/** Remove @p way from the list if present. */
inline void
remove(SetState &st, int way)
{
    const int pos = find(st, way);
    if (pos >= 0)
        st.order.erase(st.order.begin() + pos);
}

/**
 * Move @p way to the MRU position (classic LRU hit update).
 *
 * Single scan + single shift: when the way is already in the list
 * this rotates the prefix [0, pos) right by one instead of erasing
 * and re-inserting (which would shift both the suffix and the whole
 * list). The resulting order is identical.
 */
inline void
moveToFront(SetState &st, int way)
{
    const int pos = find(st, way);
    if (pos < 0) {
        st.order.insert(st.order.begin(),
                        static_cast<std::uint16_t>(way));
        return;
    }
    std::uint16_t *d = st.order.begin();
    std::memmove(d + 1, d, static_cast<std::size_t>(pos) *
                               sizeof(std::uint16_t));
    d[0] = static_cast<std::uint16_t>(way);
}

/** Promote @p way by one position towards MRU (PIPP hit update). */
inline void
promoteByOne(SetState &st, int way)
{
    const int pos = find(st, way);
    panicIf(pos < 0, "recency::promoteByOne: way not in order list");
    if (pos > 0)
        std::swap(st.order[pos], st.order[pos - 1]);
}

/**
 * Insert @p way at @p pos_from_lru positions above the LRU end
 * (0 == LRU position itself). Clamped to the list bounds.
 */
inline void
insertAtLruOffset(SetState &st, int way, std::size_t pos_from_lru)
{
    remove(st, way);
    const std::size_t n = st.order.size();
    const std::size_t off = pos_from_lru > n ? n : pos_from_lru;
    st.order.insert(st.order.end() - off, static_cast<std::uint16_t>(way));
}

/** The way at the LRU end; list must be non-empty. */
inline int
lruWay(const SetState &st)
{
    panicIf(st.order.empty(), "recency::lruWay: empty order list");
    return st.order.back();
}

} // namespace recency

} // namespace prism

#endif // PRISM_CACHE_CACHE_BLOCK_HH
