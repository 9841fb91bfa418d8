/**
 * @file
 * The shared last-level cache model.
 *
 * A set-associative cache whose blocks are tagged with the owning
 * core. Replacement is delegated to a ReplacementPolicy; victim-core
 * selection (the partitioning half) is delegated to an optional
 * PartitionScheme. With no scheme attached the cache behaves as an
 * ordinary unmanaged cache — the paper's LRU baseline.
 *
 * The cache also owns the interval machinery: every @c intervalMisses
 * misses it assembles an IntervalSnapshot (cache statistics plus
 * shadow-tag estimates), lets an optional timing hook add CPI data,
 * hands it to the scheme's allocation policy, and resets the interval
 * counters.
 *
 * Hot-path layout: block metadata lives in per-field arrays
 * (BlockArrays) plus an 8-bit tag-signature array, so a lookup scans
 * one byte per way (SWAR, 8 ways per load) and touches full 8-byte
 * tags only on signature matches. Owners are one byte per frame, so
 * a victim walk over a 64-way set reads one host cache line of them;
 * a cache therefore holds at most maxCores (255) cores, which the
 * constructor enforces. Per-core occupancy is bookkept as
 * per-interval deltas in cache-line-private counters and folded into
 * the audited occupancy array once per interval — the per-access
 * read-modify-write of a shared counter array (a false-sharing
 * hazard when many sweep jobs run side by side) is off the miss path
 * entirely.
 */

#ifndef PRISM_CACHE_SHARED_CACHE_HH
#define PRISM_CACHE_SHARED_CACHE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "cache/cache_block.hh"
#include "cache/partition_scheme.hh"
#include "cache/repl_policy.hh"
#include "cache/shadow_tags.hh"
#include "common/types.hh"
#include "telemetry/metrics_registry.hh"

namespace prism
{

/** Static configuration of a SharedCache. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 4ull << 20;
    std::uint32_t ways = 16;
    std::uint32_t blockBytes = 64;
    std::uint32_t numCores = 4;

    ReplKind repl = ReplKind::LRU;

    /**
     * Interval length W in misses; 0 selects the paper's default of
     * one recomputation per N misses (N = number of cache blocks).
     */
    std::uint64_t intervalMisses = 0;

    /** Shadow tags sample 1 in this many sets. */
    std::uint32_t shadowSampling = 32;

    std::uint64_t seed = 1;

    std::uint64_t
    numBlocks() const
    {
        return sizeBytes / blockBytes;
    }

    std::uint32_t
    numSets() const
    {
        return static_cast<std::uint32_t>(numBlocks() / ways);
    }
};

/**
 * Hit/miss outcome of one cache access. The three flags come first
 * so the struct packs into 8 bytes and access() returns it in one
 * register: a larger result is built on the stack with narrow stores
 * and reloaded before the return, a reload the store buffer cannot
 * forward, and every access then waits for the fill's stores.
 */
struct AccessResult
{
    bool hit = false;
    /** Valid only on a miss that replaced a block. */
    bool evicted = false;
    /** The evicted block was dirty and must be written back. */
    bool writeback = false;
    CoreId evictedOwner = invalidCore;
};

// AccessResult must fit one return register (see above).
static_assert(sizeof(AccessResult) == 8);
static_assert(std::is_trivially_copyable_v<AccessResult>);

/** Aggregate per-core counters since construction. */
struct CoreCacheTotals
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    std::uint64_t accesses() const { return hits + misses; }
};

/** The shared LLC. */
class SharedCache
{
  public:
    explicit SharedCache(const CacheConfig &config);

    // Non-copyable: holds policy state and raw scheme pointers.
    SharedCache(const SharedCache &) = delete;
    SharedCache &operator=(const SharedCache &) = delete;

    /** Attach the management scheme (non-owning); may be null. */
    void setScheme(PartitionScheme *scheme) { scheme_ = scheme; }

    /**
     * Hook invoked on each interval boundary after cache statistics
     * are filled in, letting a timing model add CPI fields before the
     * scheme's allocation policy runs.
     */
    void
    setTimingHook(std::function<void(IntervalSnapshot &)> hook)
    {
        timing_hook_ = std::move(hook);
    }

    /**
     * Hook invoked at each interval boundary with the live per-core
     * occupancy counters, the block count and the 1-based interval
     * index — the fault-injection seam (a FaultInjector corrupts the
     * counters here without the cache depending on it).
     */
    void
    setOccupancyFaultHook(
        std::function<bool(std::vector<std::uint64_t> &, std::uint64_t,
                           std::uint64_t)>
            hook)
    {
        occupancy_fault_hook_ = std::move(hook);
    }

    /**
     * Observer invoked at each interval boundary after the scheme's
     * allocation policy ran, with the finished snapshot and the
     * 1-based interval index — the telemetry seam (the System
     * records the per-interval time series here).
     */
    void
    setIntervalObserver(
        std::function<void(const IntervalSnapshot &, std::uint64_t)>
            observer)
    {
        interval_observer_ = std::move(observer);
    }

    /** Scoped-timer stats for access(); default = disabled. */
    void
    setAccessSpan(const telemetry::SpanStats &span)
    {
        access_span_ = span;
    }

    /**
     * Checked mode: audit block-ownership invariants at every
     * interval boundary and repair the occupancy counters from the
     * blocks actually resident when they disagree.
     */
    void setChecked(bool on) { checked_ = on; }
    bool checked() const { return checked_; }

    /** Ownership invariant violations detected in checked mode. */
    std::uint64_t invariantViolations() const
    {
        return invariant_violations_;
    }

    /** Occupancy-counter repairs performed in checked mode. */
    std::uint64_t ownershipRepairs() const { return ownership_repairs_; }

    /**
     * Perform one access by @p core to block address @p addr.
     * @param is_store Marks the block dirty; a dirty block's later
     *        eviction is reported as a writeback.
     */
    AccessResult access(CoreId core, Addr addr, bool is_store = false);

    /**
     * Hint only: start loading the host cache lines a later
     * access(core, @p addr) reads in @p addr's set — the tag
     * signatures, the recency list, the fill count, the one-byte
     * owners the victim walk reads (one 64-byte line for a 64-way
     * set) and the valid and dirty bytes. The full tags and the
     * region bytes are left out: a lookup reads a tag only on a
     * signature match, and a fill only stores to both. A simulator
     * that knows its next accesses early issues this well ahead, so
     * the set's metadata has arrived when the access runs. Changes
     * no state.
     */
    void
    prefetch(Addr addr) const
    {
        const std::uint32_t set = setIndex(addr);
        const std::size_t base =
            static_cast<std::size_t>(set) * config_.ways;
        const std::size_t ways = config_.ways;
        prefetchLines(sig_.data() + base, ways);
        prefetchLines(&sets_[set], sizeof(SetState));
        __builtin_prefetch(&set_filled_[set]);
        prefetchLines(blocks_.owner.data() + base, ways);
        prefetchLines(blocks_.valid.data() + base, ways);
        prefetchLines(blocks_.dirty.data() + base, ways);
    }

    // --- geometry ---
    const CacheConfig &config() const { return config_; }
    std::uint32_t numSets() const { return num_sets_; }
    std::uint32_t ways() const { return config_.ways; }
    std::uint64_t numBlocks() const { return config_.numBlocks(); }

    /** Set index for @p addr. */
    std::uint32_t
    setIndex(Addr addr) const
    {
        return static_cast<std::uint32_t>(addr & (num_sets_ - 1));
    }

    /** Borrowed view of set @p set_idx. */
    SetView setView(std::uint32_t set_idx);

    /** Read-only view of every block frame's field arrays (audits). */
    const BlockArrays &blockArrays() const { return blocks_; }

    // --- occupancy & statistics ---

    /**
     * Blocks of @p core currently resident. Folds the pending
     * per-interval delta on top of the last audited value, so
     * mid-interval reads see the live count.
     */
    std::uint64_t
    occupancy(CoreId core) const
    {
        return occupancy_[core] +
               static_cast<std::uint64_t>(occ_delta_[core].v);
    }

    double
    occupancyFraction(CoreId core) const
    {
        return static_cast<double>(occupancy(core)) /
               static_cast<double>(numBlocks());
    }

    const CoreCacheTotals &totals(CoreId core) const
    {
        return totals_[core];
    }

    std::uint64_t totalMisses() const { return total_misses_; }

    /** Dirty evictions since construction. */
    std::uint64_t writebacks() const { return writebacks_; }

    /** Count of blocks of @p core currently in set @p set_idx. */
    std::uint32_t countInSet(std::uint32_t set_idx, CoreId core);

    ShadowTags &shadow() { return shadow_; }
    const ShadowTags &shadow() const { return shadow_; }

    ReplacementPolicy &repl() { return *repl_; }

    /** Number of interval recomputations so far. */
    std::uint64_t intervals() const { return intervals_; }

    /** Effective interval length W in misses. */
    std::uint64_t intervalLength() const { return interval_w_; }

  private:
    /**
     * Per-interval occupancy delta for one core, alone on its cache
     * line: the only per-access-written occupancy state, private to
     * the simulating thread (kills false sharing across sweep jobs).
     */
    struct alignas(64) OccDelta
    {
        std::int64_t v = 0;
    };

    /** Prefetch every 64-byte line of [@p p, @p p + @p bytes). */
    static void
    prefetchLines(const void *p, std::size_t bytes)
    {
        const char *c = static_cast<const char *>(p);
        for (std::size_t off = 0; off < bytes; off += 64)
            __builtin_prefetch(c + off);
        // The last line, when the range does not start on a line.
        __builtin_prefetch(c + bytes - 1);
    }

    void endInterval();

    /** Fold the per-interval deltas into the occupancy array. */
    void foldOccupancy();

    /**
     * Recount per-core ownership from the resident blocks and repair
     * the occupancy counters if they disagree (checked mode; the
     * counters can only drift under fault injection). Deltas must be
     * folded first.
     */
    void auditAndRepairOwnership();

    /** Way holding @p addr in the set at frame @p base, or -1. */
    int findHitWay(std::size_t base, Addr addr,
                   std::uint8_t sig) const;

    /** First invalid way of the set at frame @p base. */
    int findInvalidWay(std::size_t base) const;

    CacheConfig config_;
    std::uint32_t num_sets_;
    std::uint64_t interval_w_;

    BlockArrays blocks_;
    /** 8-bit tag signatures, one per frame (+8 pad for SWAR loads). */
    std::vector<std::uint8_t> sig_;
    std::vector<SetState> sets_;
    /** Valid frames per set; == ways once the set has filled up. */
    std::vector<std::uint32_t> set_filled_;

    std::unique_ptr<ReplacementPolicy> repl_;
    /** Exact-LRU policy: hit/fill updates are inlined in access(). */
    bool repl_is_lru_ = false;
    PartitionScheme *scheme_ = nullptr;
    ShadowTags shadow_;

    /** Audited per-core occupancy, current as of the last interval
     *  boundary (the fault-injection / audit seam). */
    std::vector<std::uint64_t> occupancy_;
    /** Pending per-interval occupancy deltas (batched bookkeeping). */
    std::vector<OccDelta> occ_delta_;
    std::vector<CoreCacheTotals> totals_;
    /** totals_ as of the last interval boundary; interval hit/miss
     *  counts are derived by subtraction instead of being counted
     *  separately on the hot path. */
    std::vector<CoreCacheTotals> interval_start_;

    std::uint64_t misses_this_interval_ = 0;
    std::uint64_t total_misses_ = 0;
    std::uint64_t writebacks_ = 0;
    std::uint64_t intervals_ = 0;

    std::function<void(IntervalSnapshot &)> timing_hook_;
    std::function<void(const IntervalSnapshot &, std::uint64_t)>
        interval_observer_;
    telemetry::SpanStats access_span_{};

    // --- robustness (checked mode / fault injection) ---
    std::function<bool(std::vector<std::uint64_t> &, std::uint64_t,
                       std::uint64_t)>
        occupancy_fault_hook_;
    bool checked_ = false;
    std::uint64_t invariant_violations_ = 0;
    std::uint64_t ownership_repairs_ = 0;
};

} // namespace prism

#endif // PRISM_CACHE_SHARED_CACHE_HH
