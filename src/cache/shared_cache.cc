#include "cache/shared_cache.hh"

#include <bit>
#include <cstring>

#include "common/prism_assert.hh"
#include "telemetry/span.hh"

namespace prism
{

namespace
{

/**
 * 8-bit tag signature (multiplicative hash, top byte). A signature
 * mismatch proves a tag mismatch, so the lookup scans one byte per
 * way and dereferences full 8-byte tags only on the ~1/256 false
 * matches plus the actual hit.
 */
inline std::uint8_t
tagSignature(Addr addr)
{
    return static_cast<std::uint8_t>(
        (addr * 0x9E3779B97F4A7C15ULL) >> 56);
}

inline std::uint64_t
loadU64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/** 0x80 in every byte of @p v that is zero; exact (no false hits). */
inline std::uint64_t
zeroByteMask(std::uint64_t v)
{
    constexpr std::uint64_t low7 = 0x7F7F7F7F7F7F7F7FULL;
    return ~(((v & low7) + low7) | v | low7);
}

/** 0x80 in every byte of @p x equal to @p b. */
inline std::uint64_t
matchMask(std::uint64_t x, std::uint8_t b)
{
    return zeroByteMask(x ^ (0x0101010101010101ULL * b));
}

} // namespace

SharedCache::SharedCache(const CacheConfig &config)
    : config_(config), num_sets_(config.numSets()),
      repl_(makeReplPolicy(config.repl, config.seed ^ 0x5EED5EEDULL,
                           config.numSets())),
      repl_is_lru_(config.repl == ReplKind::LRU),
      shadow_(config.numCores, config.numSets(), config.ways,
              config.shadowSampling)
{
    fatalIf(config_.numCores == 0, "SharedCache: zero cores");
    fatalIf(config_.numCores > maxCores,
            "SharedCache: more than 255 cores (owners are one byte)");
    fatalIf(config_.ways == 0, "SharedCache: zero ways");
    fatalIf(config_.ways > OrderList::maxWays,
            "SharedCache: associativity above OrderList::maxWays");
    fatalIf(config_.numBlocks() % config_.ways != 0,
            "SharedCache: size not a multiple of ways * blockBytes");
    fatalIf((num_sets_ & (num_sets_ - 1)) != 0,
            "SharedCache: number of sets must be a power of two");

    blocks_.resize(config_.numBlocks());
    // +8 pad bytes so the SWAR scan's last 8-byte load stays in
    // bounds for associativities that are not a multiple of 8.
    sig_.assign(config_.numBlocks() + 8, tagSignature(invalidTag));
    sets_.resize(num_sets_);
    set_filled_.assign(num_sets_, 0);

    occupancy_.assign(config_.numCores, 0);
    occ_delta_.assign(config_.numCores, {});
    totals_.assign(config_.numCores, {});
    interval_start_.assign(config_.numCores, {});

    // Paper §4: "allocation policies recompute the probabilities
    // after the shared cache sees the same number of misses as number
    // of cache blocks" — i.e. W defaults to N.
    interval_w_ = config_.intervalMisses ? config_.intervalMisses
                                         : config_.numBlocks();
}

SetView
SharedCache::setView(std::uint32_t set_idx)
{
    return SetView{
        set_idx,
        SetBlocks(blocks_,
                  static_cast<std::size_t>(set_idx) * config_.ways,
                  config_.ways),
        sets_[set_idx],
    };
}

std::uint32_t
SharedCache::countInSet(std::uint32_t set_idx, CoreId core)
{
    const std::size_t base =
        static_cast<std::size_t>(set_idx) * config_.ways;
    std::uint32_t n = 0;
    for (std::uint32_t w = 0; w < config_.ways; ++w)
        if (blocks_.valid[base + w] && blocks_.owner[base + w] == core)
            ++n;
    return n;
}

int
SharedCache::findHitWay(std::size_t base, Addr addr,
                        std::uint8_t sig) const
{
    // Invalid frames hold the sentinel tag (never equal to a real
    // address), so the scan needs no valid check: tag match == hit.
    const std::uint8_t *sigs = sig_.data() + base;
    const Addr *tags = blocks_.tag.data() + base;
    const std::uint32_t ways = config_.ways;

    if constexpr (std::endian::native == std::endian::little) {
        for (std::uint32_t chunk = 0; chunk < ways; chunk += 8) {
            std::uint64_t m = matchMask(loadU64(sigs + chunk), sig);
            const std::uint32_t rem = ways - chunk;
            if (rem < 8)
                m &= (std::uint64_t{1} << (8 * rem)) - 1;
            while (m) {
                const auto w =
                    chunk + (static_cast<std::uint32_t>(
                                 std::countr_zero(m)) >>
                             3);
                if (tags[w] == addr)
                    return static_cast<int>(w);
                m &= m - 1;
            }
        }
    } else {
        for (std::uint32_t w = 0; w < ways; ++w)
            if (sigs[w] == sig && tags[w] == addr)
                return static_cast<int>(w);
    }
    return invalidWay;
}

int
SharedCache::findInvalidWay(std::size_t base) const
{
    const std::uint8_t *valid = blocks_.valid.data() + base;
    for (std::uint32_t w = 0; w < config_.ways; ++w)
        if (!valid[w])
            return static_cast<int>(w);
    return invalidWay;
}

AccessResult
SharedCache::access(CoreId core, Addr addr, bool is_store)
{
    PRISM_SPAN(access_span_);
    panicIf(core >= config_.numCores, "SharedCache::access: bad core");
    panicIf(addr == invalidTag,
            "SharedCache::access: address equals the invalid-tag "
            "sentinel");

    const std::uint32_t set_idx = setIndex(addr);
    if (shadow_.sampled(set_idx))
        shadow_.access(core, addr, set_idx);

    const std::size_t base =
        static_cast<std::size_t>(set_idx) * config_.ways;
    const std::uint8_t sig = tagSignature(addr);

    const int hit_way = findHitWay(base, addr, sig);
    if (hit_way >= 0) {
        ++totals_[core].hits;
        blocks_.dirty[base + static_cast<std::size_t>(hit_way)] |=
            static_cast<std::uint8_t>(is_store);
        SetView set = setView(set_idx);
        if (!scheme_ || !scheme_->onHit(*this, core, set, hit_way)) {
            // Devirtualised fast path for the default policy.
            if (repl_is_lru_)
                recency::moveToFront(set.state, hit_way);
            else
                repl_->onHit(set, hit_way);
        }
        return AccessResult{true, false, false, invalidCore};
    }

    // Miss.
    ++totals_[core].misses;
    ++total_misses_;
    ++misses_this_interval_;

    AccessResult result{false, false, false, invalidCore};
    SetView set = setView(set_idx);

    // Prefer an invalid way; otherwise the scheme names the victim.
    int victim_way = invalidWay;
    if (set_filled_[set_idx] < config_.ways)
        victim_way = findInvalidWay(base);

    if (victim_way == invalidWay) {
        victim_way = scheme_ ? scheme_->chooseVictim(*this, core, set)
                             : repl_->victim(set);
        if (victim_way == invalidWay)
            victim_way = repl_->victim(set);
        panicIf(victim_way == invalidWay,
                "SharedCache: no victim in a full set");

        const std::size_t bv =
            base + static_cast<std::size_t>(victim_way);
        const CoreId victim_owner = blocks_.owner[bv];
        result.evicted = true;
        result.evictedOwner = victim_owner;
        if (blocks_.dirty[bv]) {
            result.writeback = true;
            ++writebacks_;
        }
        --occ_delta_[victim_owner].v;
        // No recency::remove here: every fill path below that
        // maintains the order list re-inserts the way through a
        // remove-first helper (moveToFront / insertAtLruOffset), and
        // policies that ignore the list never populate it, so the
        // explicit removal was a full list scan per eviction with no
        // observable effect.
        blocks_.valid[bv] = 0;
    } else {
        ++set_filled_[set_idx];
    }

    // Fill.
    const std::size_t bf = base + static_cast<std::size_t>(victim_way);
    blocks_.tag[bf] = addr;
    sig_[bf] = sig;
    blocks_.owner[bf] = static_cast<std::uint8_t>(core);
    blocks_.valid[bf] = 1;
    blocks_.dirty[bf] = static_cast<std::uint8_t>(is_store);
    blocks_.region[bf] = regionManaged;
    ++occ_delta_[core].v;
    if (!scheme_ || !scheme_->onFill(*this, core, set, victim_way)) {
        if (repl_is_lru_)
            recency::moveToFront(set.state, victim_way);
        else
            repl_->onFill(set, victim_way);
    }

    if (misses_this_interval_ >= interval_w_)
        endInterval();

    return result;
}

void
SharedCache::foldOccupancy()
{
    // Unsigned (wrapping) arithmetic: an injected occupancy fault
    // can leave a counter near 2^63, where the signed sum would
    // overflow. Wherever that sum fits, the result is the same.
    for (CoreId c = 0; c < config_.numCores; ++c) {
        occupancy_[c] += static_cast<std::uint64_t>(occ_delta_[c].v);
        occ_delta_[c].v = 0;
    }
}

void
SharedCache::auditAndRepairOwnership()
{
    std::vector<std::uint64_t> counted(config_.numCores, 0);
    const std::size_t n = blocks_.size();
    for (std::size_t i = 0; i < n; ++i)
        if (blocks_.valid[i] && blocks_.owner[i] < config_.numCores)
            ++counted[blocks_.owner[i]];

    bool mismatch = false;
    for (CoreId c = 0; c < config_.numCores; ++c)
        mismatch |= counted[c] != occupancy_[c];
    if (mismatch) {
        ++invariant_violations_;
        ++ownership_repairs_;
        occupancy_ = std::move(counted);
    }
}

void
SharedCache::endInterval()
{
    // Batched occupancy bookkeeping: fold the per-interval deltas
    // before anything reads the audited array.
    foldOccupancy();

    // Fault-injection seam: corrupt the live occupancy counters
    // before they are snapshotted. In checked mode the audit then
    // detects the drift and repairs it from the resident blocks;
    // unchecked, the corruption flows into Equation 1, whose
    // hardened inputs clamp it.
    if (occupancy_fault_hook_)
        occupancy_fault_hook_(occupancy_, config_.numBlocks(),
                              intervals_ + 1);
    if (checked_)
        auditAndRepairOwnership();

    IntervalSnapshot snap;
    snap.totalBlocks = numBlocks();
    snap.ways = config_.ways;
    snap.intervalMisses = misses_this_interval_;
    snap.cores.resize(config_.numCores);
    for (CoreId c = 0; c < config_.numCores; ++c) {
        auto &cs = snap.cores[c];
        cs.sharedHits = totals_[c].hits - interval_start_[c].hits;
        cs.sharedMisses =
            totals_[c].misses - interval_start_[c].misses;
        cs.occupancyBlocks = occupancy_[c];
        cs.shadowHitsAtPosition = shadow_.scaledHitCurve(c);
        cs.shadowMisses = shadow_.scaledMisses(c);
    }

    if (timing_hook_)
        timing_hook_(snap);
    if (scheme_)
        scheme_->onIntervalEnd(snap);

    ++intervals_;
    if (interval_observer_)
        interval_observer_(snap, intervals_);
    misses_this_interval_ = 0;
    interval_start_ = totals_;
    shadow_.resetInterval();
}

} // namespace prism
