/**
 * @file
 * Interface between the shared cache and a cache-management scheme.
 *
 * The paper separates cache management into (i) a partitioning
 * mechanism that enforces decisions at replacement time and (ii) an
 * allocation policy that recomputes decisions once per interval of W
 * misses. This interface carries both: per-access hooks (onHit /
 * chooseVictim / onFill) and the interval hook (onIntervalEnd), which
 * receives an IntervalSnapshot assembled by the cache and — when a
 * timing model is attached — augmented with per-core CPI statistics.
 *
 * The PriSM-driven schemes (PrismScheme, WayMaskScheme) are
 * simulator backends of the shared control loop (DESIGN.md §8): they
 * additionally implement ControllerHost, hand each IntervalSnapshot
 * to the shared PrismController's recompute and keep only
 * enforcement — per-miss victim-core sampling or way-mask
 * quantisation — in their onIntervalEnd/chooseVictim hooks. The
 * other schemes (UCP, PIPP, Vantage, ...) implement this interface
 * alone.
 */

#ifndef PRISM_CACHE_PARTITION_SCHEME_HH
#define PRISM_CACHE_PARTITION_SCHEME_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache_block.hh"
#include "common/types.hh"

namespace prism
{

class SharedCache;

/** Per-core statistics for one allocation interval. */
struct CoreIntervalStats
{
    // --- shared-cache behaviour over the interval ---
    std::uint64_t sharedHits = 0;
    std::uint64_t sharedMisses = 0;

    /** Blocks currently owned in the shared cache. */
    std::uint64_t occupancyBlocks = 0;

    // --- shadow-tag (stand-alone) estimates over the interval ---
    /**
     * Hits the core would have scored at each LRU stack position had
     * it owned the whole cache; entry w counts hits exactly at
     * position w. Already scaled from the sampled sets to the whole
     * cache.
     */
    std::vector<double> shadowHitsAtPosition;

    /** Scaled shadow-tag misses (stand-alone misses estimate). */
    double shadowMisses = 0;

    // --- timing (zero unless a timing model is attached) ---
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    /** Cycles this core stalled on LLC misses (the CPI_llc source). */
    std::uint64_t llcStallCycles = 0;

    /** Estimated stand-alone hits with the full cache (paper's
     *  StandAloneHits): the sum of the shadow hit histogram. */
    double
    standAloneHits() const
    {
        double sum = 0;
        for (double h : shadowHitsAtPosition)
            sum += h;
        return sum;
    }

    /** Stand-alone hits with only the first @p ways ways. */
    double
    standAloneHitsWithWays(std::size_t ways) const
    {
        double sum = 0;
        for (std::size_t w = 0;
             w < ways && w < shadowHitsAtPosition.size(); ++w)
            sum += shadowHitsAtPosition[w];
        return sum;
    }
};

/**
 * Snapshot the allocation policies consume once per interval. The
 * serving store fills it too (serve::toIntervalSnapshot): there each
 * "core" is a tenant and blocks count bytes.
 */
struct IntervalSnapshot
{
    std::vector<CoreIntervalStats> cores;

    std::uint64_t totalBlocks = 0;   ///< N in the paper
    std::uint32_t ways = 0;          ///< LLC associativity
    std::uint64_t intervalMisses = 0; ///< W: misses in this interval

    std::uint32_t numCores() const
    {
        return static_cast<std::uint32_t>(cores.size());
    }

    /** Occupancy fraction C_i of @p core. */
    double
    occupancyFraction(CoreId core) const
    {
        return static_cast<double>(cores[core].occupancyBlocks) /
               static_cast<double>(totalBlocks);
    }

    /** Miss fraction M_i of @p core within the interval. */
    double
    missFraction(CoreId core) const
    {
        if (intervalMisses == 0)
            return 0.0;
        return static_cast<double>(cores[core].sharedMisses) /
               static_cast<double>(intervalMisses);
    }
};

/**
 * A cache-management scheme: the replacement-time enforcement half of
 * a partitioning solution plus its interval-time allocation policy.
 */
class PartitionScheme
{
  public:
    virtual ~PartitionScheme() = default;

    virtual std::string name() const = 0;

    /**
     * A block was hit.
     * @return true if the scheme fully handled recency updates
     *         (integrated schemes like PIPP); false to let the
     *         underlying replacement policy update normally.
     */
    virtual bool
    onHit(SharedCache &cache, CoreId core, const SetView &set, int way)
    {
        (void)cache;
        (void)core;
        (void)set;
        (void)way;
        return false;
    }

    /**
     * Pick the victim way for a miss by @p core in @p set. Every way
     * in the set is valid when this is called (the cache fills
     * invalid ways itself).
     */
    virtual int chooseVictim(SharedCache &cache, CoreId core,
                             const SetView &set) = 0;

    /**
     * A new block was filled into @p way for @p core.
     * @return true if the scheme handled recency placement itself.
     */
    virtual bool
    onFill(SharedCache &cache, CoreId core, const SetView &set, int way)
    {
        (void)cache;
        (void)core;
        (void)set;
        (void)way;
        return false;
    }

    /** Interval boundary: recompute allocation decisions. */
    virtual void
    onIntervalEnd(const IntervalSnapshot &snap)
    {
        (void)snap;
    }
};

} // namespace prism

#endif // PRISM_CACHE_PARTITION_SCHEME_HH
