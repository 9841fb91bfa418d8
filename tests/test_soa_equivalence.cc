/**
 * @file
 * SoA cache metadata vs the AoS reference model.
 *
 * SharedCache runs on per-field arrays (BlockArrays) with an 8-bit
 * tag-signature SWAR scan, batched occupancy deltas and a
 * devirtualised LRU fast path. This suite replays random access
 * streams through SharedCache and through an independent reference
 * cache built over plain per-block `CacheBlock` structs (the AoS
 * layout the header documents as the reference), with textbook
 * policy logic re-implemented from the policy specs:
 *
 *  - LRU: explicit recency list, remove-then-insert on every touch;
 *  - Random: random victim among valid ways, MRU insertion;
 *  - RRIP: 2-bit DRRIP with set dueling and aging on victim scans.
 *
 * Every access must agree on hit/miss, eviction, evicted owner and
 * writeback; periodic audits require the full block state (tags,
 * owners, dirty bits, policy state, recency order) and the per-core
 * occupancy counters to be identical. A second test drives a full
 * PriSM configuration and runs the InvariantAuditor's ownership and
 * distribution checks at every interval boundary.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/shared_cache.hh"
#include "common/rng.hh"
#include "fault/invariant_auditor.hh"
#include "prism/alloc_hitmax.hh"
#include "prism/prism_scheme.hh"

using namespace prism;

namespace
{

/**
 * The reference model: one CacheBlock struct per frame, one
 * std::vector recency list per set, policy logic written straight
 * from the policy descriptions (no shared code with the SoA hot
 * path beyond the Rng, which both sides must consume identically).
 */
class RefCache
{
  public:
    explicit RefCache(const CacheConfig &cfg)
        : cfg_(cfg), num_sets_(cfg.numSets()),
          blocks_(cfg.numBlocks()), order_(num_sets_),
          occupancy_(cfg.numCores, 0),
          policy_rng_(cfg.seed ^ 0x5EED5EEDULL)
    {
    }

    AccessResult
    access(CoreId core, Addr addr, bool is_store)
    {
        const std::uint32_t set = static_cast<std::uint32_t>(
            addr & (num_sets_ - 1));
        const std::size_t base =
            static_cast<std::size_t>(set) * cfg_.ways;

        for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
            CacheBlock &b = blocks_[base + w];
            if (b.valid && b.tag == addr) {
                b.dirty |= is_store;
                onHit(set, static_cast<int>(w));
                return AccessResult{true, false, false, invalidCore};
            }
        }

        AccessResult result{false, false, false, invalidCore};
        int way = invalidWay;
        for (std::uint32_t w = 0; w < cfg_.ways; ++w)
            if (!blocks_[base + w].valid) {
                way = static_cast<int>(w);
                break;
            }
        if (way == invalidWay) {
            way = victim(set);
            CacheBlock &v = blocks_[base + static_cast<std::size_t>(way)];
            result.evicted = true;
            result.evictedOwner = v.owner;
            result.writeback = v.dirty;
            --occupancy_[v.owner];
            v.valid = false;
            listRemove(set, way);
        }

        CacheBlock &b = blocks_[base + static_cast<std::size_t>(way)];
        b.tag = addr;
        b.owner = core;
        b.valid = true;
        b.dirty = is_store;
        b.region = regionManaged;
        ++occupancy_[core];
        onFill(set, way);
        return result;
    }

    const CacheBlock &
    block(std::size_t frame) const
    {
        return blocks_[frame];
    }

    const std::vector<std::uint16_t> &
    order(std::uint32_t set) const
    {
        return order_[set];
    }

    std::uint64_t occupancy(CoreId c) const { return occupancy_[c]; }

  private:
    void
    listRemove(std::uint32_t set, int way)
    {
        auto &o = order_[set];
        for (std::size_t i = 0; i < o.size(); ++i)
            if (o[i] == way) {
                o.erase(o.begin() + static_cast<std::ptrdiff_t>(i));
                return;
            }
    }

    void
    listFront(std::uint32_t set, int way)
    {
        listRemove(set, way);
        order_[set].insert(order_[set].begin(),
                           static_cast<std::uint16_t>(way));
    }

    void
    onHit(std::uint32_t set, int way)
    {
        if (cfg_.repl == ReplKind::RRIP)
            blocks_[frame(set, way)].rrpv = 0;
        else
            listFront(set, way); // LRU and Random both promote
    }

    void
    onFill(std::uint32_t set, int way)
    {
        if (cfg_.repl != ReplKind::RRIP) {
            listFront(set, way);
            return;
        }
        // DRRIP set dueling: leaders at constituency offsets 0/1.
        const std::uint32_t mod = set & 31u;
        const bool srrip_leader = (mod == 0);
        const bool brrip_leader = (mod == 1);
        if (srrip_leader && psel_ < 1023)
            ++psel_;
        if (brrip_leader && psel_ > 0)
            --psel_;
        bool use_brrip;
        if (srrip_leader)
            use_brrip = false;
        else if (brrip_leader)
            use_brrip = true;
        else
            use_brrip = psel_ > 511;
        CacheBlock &b = blocks_[frame(set, way)];
        if (use_brrip && !policy_rng_.chance(1.0 / 32.0))
            b.rrpv = 3;
        else
            b.rrpv = 2;
    }

    int
    victim(std::uint32_t set)
    {
        switch (cfg_.repl) {
          case ReplKind::LRU:
            return order_[set].back();
          case ReplKind::Random: {
            std::vector<int> valid;
            for (std::uint32_t w = 0; w < cfg_.ways; ++w)
                if (blocks_[frame(set, static_cast<int>(w))].valid)
                    valid.push_back(static_cast<int>(w));
            return valid[policy_rng_.below(valid.size())];
          }
          case ReplKind::RRIP: {
            std::uint8_t max_rrpv = 0;
            for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
                const CacheBlock &b =
                    blocks_[frame(set, static_cast<int>(w))];
                if (b.valid && b.rrpv > max_rrpv)
                    max_rrpv = b.rrpv;
            }
            for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
                CacheBlock &b =
                    blocks_[frame(set, static_cast<int>(w))];
                if (b.valid)
                    b.rrpv = static_cast<std::uint8_t>(
                        b.rrpv + (3 - max_rrpv));
            }
            for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
                const CacheBlock &b =
                    blocks_[frame(set, static_cast<int>(w))];
                if (b.valid && b.rrpv == 3)
                    return static_cast<int>(w);
            }
            return invalidWay;
          }
          default:
            return invalidWay;
        }
    }

    std::size_t
    frame(std::uint32_t set, int way) const
    {
        return static_cast<std::size_t>(set) * cfg_.ways +
               static_cast<std::size_t>(way);
    }

    CacheConfig cfg_;
    std::uint32_t num_sets_;
    std::vector<CacheBlock> blocks_;
    std::vector<std::vector<std::uint16_t>> order_;
    std::vector<std::uint64_t> occupancy_;
    Rng policy_rng_;
    unsigned psel_ = 511; // DRRIP PSEL, matches RripPolicy's start
};

/** Compare every frame's metadata between SoA cache and reference. */
void
expectStateEqual(SharedCache &cache, const RefCache &ref,
                 std::uint64_t at_access)
{
    const BlockArrays &soa = cache.blockArrays();
    const CacheConfig &cfg = cache.config();
    for (std::size_t i = 0; i < soa.size(); ++i) {
        const CacheBlock &b = ref.block(i);
        ASSERT_EQ(soa.valid[i] != 0, b.valid)
            << "frame " << i << " at access " << at_access;
        if (!b.valid)
            continue;
        ASSERT_EQ(soa.tag[i], b.tag) << "frame " << i;
        ASSERT_EQ(soa.owner[i], b.owner) << "frame " << i;
        ASSERT_EQ(soa.dirty[i] != 0, b.dirty) << "frame " << i;
        if (cfg.repl == ReplKind::RRIP)
            ASSERT_EQ(soa.rrpv[i], b.rrpv) << "frame " << i;
    }
    for (std::uint32_t s = 0; s < cache.numSets(); ++s)
        if (cfg.repl != ReplKind::RRIP)
            ASSERT_EQ(cache.setView(s).state.order, ref.order(s))
                << "set " << s << " recency order at access "
                << at_access;
    for (CoreId c = 0; c < cfg.numCores; ++c)
        ASSERT_EQ(cache.occupancy(c), ref.occupancy(c))
            << "core " << c << " occupancy at access " << at_access;
}

/**
 * Fuzz one configuration: random multi-core access stream with a
 * footprint ~2x the cache, per-access result equality, periodic
 * full-state audits.
 */
void
fuzzAgainstReference(ReplKind repl, std::uint64_t stream_seed)
{
    CacheConfig cfg;
    cfg.sizeBytes = 16ull << 10; // 256 blocks, 32 sets x 8 ways
    cfg.ways = 8;
    cfg.blockBytes = 64;
    cfg.numCores = 4;
    cfg.repl = repl;
    cfg.seed = 1;

    SharedCache cache(cfg);
    RefCache ref(cfg);

    Rng stream(stream_seed);
    const std::uint64_t footprint = 2 * cfg.numBlocks();
    constexpr std::uint64_t kAccesses = 60'000;
    constexpr std::uint64_t kAuditEvery = 4096;

    for (std::uint64_t i = 0; i < kAccesses; ++i) {
        const CoreId core =
            static_cast<CoreId>(stream.below(cfg.numCores));
        // Core-private halves plus some sharing keeps every core
        // resident and exercises cross-core evictions.
        const Addr addr = (static_cast<Addr>(core) << 32) +
                          stream.below(footprint / cfg.numCores);
        const bool store = (addr & 7) == 0;

        const AccessResult got = cache.access(core, addr, store);
        const AccessResult want = ref.access(core, addr, store);
        ASSERT_EQ(got.hit, want.hit) << "access " << i;
        ASSERT_EQ(got.evicted, want.evicted) << "access " << i;
        ASSERT_EQ(got.evictedOwner, want.evictedOwner)
            << "access " << i;
        ASSERT_EQ(got.writeback, want.writeback) << "access " << i;

        if ((i + 1) % kAuditEvery == 0)
            expectStateEqual(cache, ref, i + 1);
    }
    expectStateEqual(cache, ref, kAccesses);
}

} // namespace

TEST(SoaEquivalence, LruMatchesReferenceModel)
{
    for (const std::uint64_t seed : {11u, 22u, 33u})
        fuzzAgainstReference(ReplKind::LRU, seed);
}

TEST(SoaEquivalence, RandomMatchesReferenceModel)
{
    for (const std::uint64_t seed : {44u, 55u})
        fuzzAgainstReference(ReplKind::Random, seed);
}

TEST(SoaEquivalence, RripMatchesReferenceModel)
{
    for (const std::uint64_t seed : {66u, 77u})
        fuzzAgainstReference(ReplKind::RRIP, seed);
}

TEST(SoaEquivalence, PrismIntervalInvariantsHold)
{
    // Full PriSM stack over the SoA cache: at every interval
    // boundary the batched occupancy bookkeeping must agree with the
    // blocks actually resident, and the recomputed eviction
    // distribution must still be a distribution.
    CacheConfig cfg;
    cfg.sizeBytes = 64ull << 10;
    cfg.ways = 16;
    cfg.blockBytes = 64;
    cfg.numCores = 8;
    cfg.intervalMisses = 512;
    cfg.seed = 3;

    SharedCache cache(cfg);
    PrismScheme scheme(cfg.numCores,
                       std::make_unique<HitMaxPolicy>(), 7);
    cache.setScheme(&scheme);

    InvariantAuditor auditor;
    std::uint64_t audited = 0;
    cache.setIntervalObserver(
        [&](const IntervalSnapshot &, std::uint64_t) {
            ++audited;
            const Status own = auditor.checkOwnership(cache);
            EXPECT_TRUE(own.ok()) << own.message();
            const Status dist =
                auditor.checkDistribution(
                    scheme.controller().evictionProbs());
            EXPECT_TRUE(dist.ok()) << dist.message();
        });

    Rng stream(123);
    const std::uint64_t footprint = 2 * cfg.numBlocks();
    for (std::uint64_t i = 0; i < 200'000; ++i) {
        const CoreId core =
            static_cast<CoreId>(stream.below(cfg.numCores));
        const Addr addr = (static_cast<Addr>(core) << 32) +
                          stream.below(footprint / cfg.numCores);
        cache.access(core, addr, (addr & 7) == 0);
    }

    EXPECT_GE(cache.intervals(), 10u);
    EXPECT_EQ(audited, cache.intervals());
    EXPECT_EQ(auditor.violations(), 0u);
    EXPECT_GT(scheme.replacements(), 0u);
}
