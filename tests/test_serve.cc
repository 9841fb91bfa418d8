/**
 * @file
 * Unit tests for the serving plane (src/serve): the sharded object
 * store's hashing/LRU/ghost/accounting contracts, its shard locks
 * against per-op get/put, the engine's run-length check, the
 * Zipfian load generator, tenant-spec parsing, the target policies
 * and the interval arbiter (including the shared controller's
 * injected faults), plus the telemetry Histogram quantile accessor
 * the latency report depends on. The multithreaded store suites
 * double as the TSan data-race gate for the store (registered
 * separately under -DPRISM_TSAN=ON).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "common/zipf.hh"
#include "exec/thread_pool.hh"
#include "fault/fault_injector.hh"
#include "plane/eq1.hh"
#include "serve/load_gen.hh"
#include "serve/serve_engine.hh"
#include "serve/sharded_store.hh"
#include "serve/tenant_arbiter.hh"
#include "telemetry/metrics_registry.hh"

using namespace prism;
using namespace prism::serve;

namespace
{

std::vector<std::uint8_t>
bytesOf(std::uint32_t n, std::uint8_t fill)
{
    return std::vector<std::uint8_t>(n, fill);
}

/** One-shard store so LRU order is observable end to end. */
StoreConfig
singleShard(std::uint32_t tenants, std::uint64_t capacity = 1 << 20)
{
    StoreConfig cfg;
    cfg.shards = 1;
    cfg.tenants = tenants;
    cfg.capacityBytes = capacity;
    return cfg;
}

} // namespace

// --- ShardedStore -------------------------------------------------

TEST(ShardedStore, PutGetRoundTrip)
{
    ShardedStore store(singleShard(2));
    store.put(0, 42, bytesOf(100, 0xAB));

    std::vector<std::uint8_t> value;
    const auto r = store.get(0, 42, &value);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(value, bytesOf(100, 0xAB));

    // Same key under another tenant is a distinct object.
    EXPECT_FALSE(store.get(1, 42).hit);
    EXPECT_EQ(store.hits(0), 1u);
    EXPECT_EQ(store.misses(1), 1u);
}

TEST(ShardedStore, ByteAccountingTracksPutsAndOverwrites)
{
    ShardedStore store(singleShard(2));
    store.put(0, 1, bytesOf(100, 1));
    store.put(1, 2, bytesOf(50, 2));
    EXPECT_EQ(store.tenantBytes(0), 100u);
    EXPECT_EQ(store.tenantBytes(1), 50u);
    EXPECT_EQ(store.totalBytes(), 150u);
    EXPECT_EQ(store.objectCount(), 2u);

    // Overwrite shrinks in place; counts stay at one object.
    store.put(0, 1, bytesOf(30, 3));
    EXPECT_EQ(store.tenantBytes(0), 30u);
    EXPECT_EQ(store.totalBytes(), 80u);
    EXPECT_EQ(store.objectCount(), 2u);
}

TEST(ShardedStore, EvictsLeastRecentlyUsedOfTheTenant)
{
    ShardedStore store(singleShard(1));
    store.put(0, 1, bytesOf(10, 1));
    store.put(0, 2, bytesOf(20, 2));
    store.put(0, 3, bytesOf(30, 3));

    // Refresh key 1: eviction order becomes 2, 3, 1.
    EXPECT_TRUE(store.get(0, 1).hit);

    EXPECT_EQ(store.evictOneFrom(0), 20u);
    EXPECT_FALSE(store.get(0, 2).hit);
    EXPECT_EQ(store.evictOneFrom(0), 30u);
    EXPECT_EQ(store.evictOneFrom(0), 10u);
    EXPECT_EQ(store.totalBytes(), 0u);
    EXPECT_EQ(store.evictOneFrom(0), 0u) << "empty tenant";
}

TEST(ShardedStore, EvictionIsPerTenant)
{
    ShardedStore store(singleShard(2));
    store.put(0, 1, bytesOf(10, 1));
    store.put(1, 2, bytesOf(20, 2));

    // Tenant 1's eviction must not touch tenant 0's object even
    // though tenant 0's is older.
    EXPECT_EQ(store.evictOneFrom(1), 20u);
    EXPECT_TRUE(store.get(0, 1).hit);
    EXPECT_EQ(store.tenantBytes(1), 0u);
}

TEST(ShardedStore, GhostListTurnsEvictedMissesIntoShadowHits)
{
    ShardedStore store(singleShard(1));
    store.put(0, 7, bytesOf(10, 1));
    EXPECT_EQ(store.evictOneFrom(0), 10u);

    const auto r = store.get(0, 7);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.shadowHit);
    EXPECT_EQ(store.shadowHits(0), 1u);

    // Reinserting drops the key from the ghost list: a later miss
    // (after another eviction cycle is NOT involved) is clean.
    store.put(0, 7, bytesOf(10, 1));
    const auto r2 = store.get(0, 8);
    EXPECT_FALSE(r2.hit);
    EXPECT_FALSE(r2.shadowHit);
}

TEST(ShardedStore, GhostListKeepsKeysEvictedAgain)
{
    // k is evicted, put back and evicted again, then x is evicted:
    // k and x are the two latest evictions, so k is still a ghost
    // after its first eviction's ring slot ages out.
    StoreConfig cfg = singleShard(1);
    cfg.ghostPerTenant = 2;
    ShardedStore store(cfg);
    store.put(0, 7, bytesOf(10, 1));
    EXPECT_EQ(store.evictOneFrom(0), 10u);
    store.put(0, 7, bytesOf(10, 1));
    EXPECT_EQ(store.evictOneFrom(0), 10u);
    store.put(0, 8, bytesOf(10, 2));
    EXPECT_EQ(store.evictOneFrom(0), 10u);

    const auto r = store.get(0, 7);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.shadowHit);
}

namespace
{

/** Reference model of one tenant in a single-shard store: its LRU
 *  order, value sizes and the evictions its ghost list remembers. */
struct RefTenant
{
    std::vector<std::uint64_t> lru; ///< front = most recent
    std::map<std::uint64_t, std::uint32_t> bytes; ///< live objects
    /** Ordinal of each key's latest eviction; dropped when the key
     *  is put back. */
    std::map<std::uint64_t, std::uint64_t> evictedAt;
    std::uint64_t evictions = 0;

    void
    touch(std::uint64_t key)
    {
        const auto it = std::find(lru.begin(), lru.end(), key);
        if (it != lru.end())
            lru.erase(it);
        lru.insert(lru.begin(), key);
    }

    bool
    ghost(std::uint64_t key, std::uint32_t capacity) const
    {
        const auto it = evictedAt.find(key);
        return it != evictedAt.end() &&
               it->second + capacity >= evictions;
    }
};

} // namespace

TEST(ShardedStore, GhostMembershipMatchesLastEvictions)
{
    // A key is a ghost iff its latest eviction is among the tenant's
    // last `capacity` evictions and it was not put back since. Tiny
    // tables (8 and 16 cells) make probe chains wrap and exercise
    // backward-shift deletion on every put of a ghost.
    constexpr std::uint64_t kKeys = 24;
    for (const std::uint32_t capacity : {3u, 5u}) {
        StoreConfig cfg = singleShard(2);
        cfg.ghostPerTenant = capacity;
        ShardedStore store(cfg);
        std::vector<RefTenant> ref(2);
        Rng rng(deriveSeed(13, std::uint64_t{capacity}));

        for (std::uint32_t op = 0; op < 100000; ++op) {
            const auto t = static_cast<std::uint32_t>(rng.below(2));
            RefTenant &r = ref[t];
            const std::uint64_t key = rng.below(kKeys);
            const double roll = rng.uniform();
            if (roll < 0.4) {
                const auto n =
                    static_cast<std::uint32_t>(1 + rng.below(32));
                store.put(t, key, bytesOf(n, 1));
                r.touch(key);
                r.bytes[key] = n;
                r.evictedAt.erase(key);
            } else if (roll < 0.7) {
                const std::uint64_t freed = store.evictOneFrom(t);
                if (r.lru.empty()) {
                    ASSERT_EQ(freed, 0u);
                } else {
                    const std::uint64_t victim = r.lru.back();
                    r.lru.pop_back();
                    ASSERT_EQ(freed, r.bytes[victim]) << "op " << op;
                    r.bytes.erase(victim);
                    r.evictedAt[victim] = r.evictions++;
                }
            } else {
                const bool live = r.bytes.count(key) != 0;
                ASSERT_EQ(store.get(t, key).hit, live) << "op " << op;
                if (live)
                    r.touch(key);
            }
            // Probe every absent key (a miss leaves LRU order alone).
            for (std::uint64_t k = 0; k < kKeys; ++k) {
                if (r.bytes.count(k) != 0)
                    continue;
                ASSERT_EQ(store.get(t, k).shadowHit, r.ghost(k, capacity))
                    << "capacity " << capacity << " op " << op << " key "
                    << k;
            }
        }
    }
}

TEST(ShardedStoreParallelEvict, PlannedEvictionMatchesEvictOneFrom)
{
    // Triplet stores see the same puts and gets; one evicts by
    // planning a draw sequence and executing it per shard on a pool,
    // one plans the same way from the tail records its shards took
    // under their locks, as the engine's apply tasks do, and the
    // third by one evictOneFrom per draw. Small ghost rings wrap,
    // and tenant 2 only writes in the first round, so it runs dry.
    // The draw counts vary by round, so each record (as deep as the
    // previous plan's count) is shorter than, equal to or longer
    // than what the plan takes from it; some rounds get and put on
    // a shard between its walk and the plan.
    StoreConfig cfg;
    cfg.shards = 8;
    cfg.tenants = 3;
    cfg.ghostPerTenant = 4;
    ShardedStore planned(cfg);
    ShardedStore walked(cfg);
    ShardedStore sequential(cfg);
    ShardedStore *const stores[] = {&planned, &walked, &sequential};
    ThreadPool pool(4);
    Rng rng(2012);
    constexpr std::uint64_t kKeys = 400;
    constexpr std::uint32_t kDraws[] = {250, 250, 120, 380, 380, 200,
                                        250, 90,  300, 300, 150, 250};
    std::uint32_t dry_draws = 0;
    // Per (shard, tenant): the walk depth (the count of the shard's
    // latest executed plan) and the count planned this round.
    std::vector<std::uint32_t> depth(cfg.shards * cfg.tenants, 0);
    std::vector<std::uint32_t> taken(depth.size(), 0);
    std::uint32_t shorter = 0, equal = 0, longer = 0;

    const auto expectSameKeys = [&] {
        for (std::uint32_t t = 0; t < cfg.tenants; ++t)
            for (std::uint64_t key = 0; key < kKeys; ++key) {
                const auto a = planned.get(t, key);
                const auto w = walked.get(t, key);
                const auto b = sequential.get(t, key);
                ASSERT_EQ(a.hit, b.hit) << t << "/" << key;
                ASSERT_EQ(a.shadowHit, b.shadowHit) << t << "/" << key;
                ASSERT_EQ(w.hit, b.hit) << t << "/" << key;
                ASSERT_EQ(w.shadowHit, b.shadowHit) << t << "/" << key;
            }
    };
    // Plan tenant @p d in @p store; the shard the plan landed in.
    const auto planIn = [&](ShardedStore &store, std::uint32_t d,
                            std::uint64_t &bytes) {
        std::vector<std::uint32_t> before(store.shardCount());
        for (std::uint32_t sh = 0; sh < store.shardCount(); ++sh)
            before[sh] = store.plannedEvictions(sh);
        bytes = store.planEviction(d);
        for (std::uint32_t sh = 0; sh < store.shardCount(); ++sh)
            if (store.plannedEvictions(sh) != before[sh])
                return sh;
        return ~0u;
    };
    const auto execute = [&pool](ShardedStore &store) {
        for (std::uint32_t sh = 0; sh < store.shardCount(); ++sh)
            if (store.plannedEvictions(sh) != 0)
                pool.submit([&store, sh] { store.evictPlanned(sh); });
        pool.wait();
        for (std::uint32_t sh = 0; sh < store.shardCount(); ++sh)
            EXPECT_EQ(store.plannedEvictions(sh), 0u);
    };

    for (std::uint32_t round = 0; round < std::size(kDraws); ++round) {
        for (std::uint32_t op = 0; op < 600; ++op) {
            auto t = static_cast<std::uint32_t>(rng.below(3));
            if (t == 2 && round > 0)
                t = 0;
            const std::uint64_t key = rng.below(kKeys);
            if (rng.chance(0.7)) {
                const auto value = bytesOf(
                    static_cast<std::uint32_t>(1 + rng.below(64)), 7);
                for (ShardedStore *store : stores)
                    store->put(t, key, value);
            } else {
                const bool hit = sequential.get(t, key).hit;
                ASSERT_EQ(planned.get(t, key).hit, hit);
                ASSERT_EQ(walked.get(t, key).hit, hit);
            }
        }

        for (std::uint32_t sh = 0; sh < walked.shardCount(); ++sh)
            walked.lockShard(sh).recordTails();
        std::vector<bool> meddled(cfg.shards, false);
        if (round % 3 == 1) {
            // Gets that reorder one shard's tenant-0 list, puts that
            // resize tenant-1 objects in another, and puts through a
            // shard lock taken after its walk discard the records
            // of their shards.
            const auto value = bytesOf(70, 3);
            const std::uint32_t get_shard =
                walked.shardOf(0, rng.below(kKeys));
            const std::uint32_t put_shard =
                walked.shardOf(1, rng.below(kKeys));
            const std::uint32_t lock_shard =
                walked.shardOf(0, rng.below(kKeys));
            for (std::uint64_t key = 0; key < kKeys; ++key)
                for (ShardedStore *store : stores) {
                    if (walked.shardOf(0, key) == get_shard)
                        store->get(0, key);
                    if (walked.shardOf(1, key) == put_shard)
                        store->put(1, key, value);
                }
            ShardedStore::ShardLock lock = walked.lockShard(lock_shard);
            lock.recordTails();
            for (std::uint64_t key = 0; key < kKeys; key += 3)
                if (walked.shardOf(0, key) == lock_shard) {
                    lock.put(0, key, value);
                    planned.put(0, key, value);
                    sequential.put(0, key, value);
                }
            meddled[get_shard] = meddled[put_shard] = true;
            meddled[lock_shard] = true;
        }

        std::vector<std::uint32_t> draws(kDraws[round]);
        for (std::uint32_t &d : draws)
            d = static_cast<std::uint32_t>(rng.below(3));
        std::vector<std::uint64_t> plan_bytes;
        std::fill(taken.begin(), taken.end(), 0);
        for (const std::uint32_t d : draws) {
            std::uint64_t bytes = 0, walk_bytes = 0;
            const std::uint32_t sh = planIn(planned, d, bytes);
            ASSERT_EQ(planIn(walked, d, walk_bytes), sh)
                << "round " << round;
            ASSERT_EQ(walk_bytes, bytes) << "round " << round;
            plan_bytes.push_back(bytes);
            if (sh != ~0u)
                ++taken[sh * cfg.tenants + d];
        }
        for (std::uint32_t sh = 0; sh < cfg.shards; ++sh) {
            if (walked.plannedEvictions(sh) == 0)
                continue; // not executed: its depths stay
            for (std::uint32_t t = 0; t < cfg.tenants; ++t) {
                std::uint32_t &d = depth[sh * cfg.tenants + t];
                const std::uint32_t n = taken[sh * cfg.tenants + t];
                if (!meddled[sh] && d > 0) {
                    shorter += d < n ? 1 : 0;
                    equal += d == n ? 1 : 0;
                    longer += d > n ? 1 : 0;
                }
                d = n;
            }
        }
        execute(planned);
        execute(walked);

        for (std::size_t i = 0; i < draws.size(); ++i) {
            ASSERT_EQ(plan_bytes[i], sequential.evictOneFrom(draws[i]))
                << "round " << round << " draw " << i;
            dry_draws += plan_bytes[i] == 0 ? 1 : 0;
        }
        for (const ShardedStore *store : {&planned, &walked}) {
            for (std::uint32_t t = 0; t < cfg.tenants; ++t) {
                ASSERT_EQ(store->tenantBytes(t),
                          sequential.tenantBytes(t));
                ASSERT_EQ(store->hits(t), sequential.hits(t));
                ASSERT_EQ(store->shadowHits(t),
                          sequential.shadowHits(t));
            }
            ASSERT_EQ(store->totalBytes(), sequential.totalBytes());
            ASSERT_EQ(store->objectCount(), sequential.objectCount());
        }
        expectSameKeys();
    }
    EXPECT_GT(dry_draws, 0u) << "tenant 2 never ran dry";
    EXPECT_GT(shorter, 0u);
    EXPECT_GT(equal, 0u);
    EXPECT_GT(longer, 0u);

    // Later evictions drain the stores in the same order; the walked
    // one starts from fresh records, which each eviction discards.
    for (std::uint32_t sh = 0; sh < walked.shardCount(); ++sh)
        walked.lockShard(sh).recordTails();
    for (std::uint32_t t = 0; t < cfg.tenants; ++t)
        for (;;) {
            const std::uint64_t freed = planned.evictOneFrom(t);
            ASSERT_EQ(walked.evictOneFrom(t), freed);
            ASSERT_EQ(freed, sequential.evictOneFrom(t));
            if (freed == 0)
                break;
        }
    EXPECT_EQ(planned.objectCount(), 0u);
    EXPECT_EQ(walked.objectCount(), 0u);
    expectSameKeys();
}

namespace
{

/** Tenants whose value sizes span many buffer size classes. */
struct ValueShape
{
    std::uint64_t keys;
    std::uint32_t vmin, vmax;
};
const std::vector<ValueShape> kValueShapes = {
    {1500, 1, 300}, {600, 500, 2100}, {60, 4 << 10, 70 << 10}};
constexpr auto kShapedTenants = 3u;

/** A store for kValueShapes whose tables start at 16 slots, so they
 *  grow under churn and rehashes move value buffers between slots. */
StoreConfig
shapedStore()
{
    StoreConfig cfg;
    cfg.shards = 8;
    cfg.tenants = kShapedTenants;
    cfg.initialSlots = 16;
    cfg.ghostPerTenant = 64;
    return cfg;
}

/** A kValueShapes tenant; the 4-70 KB one gets a tenth of the ops. */
std::uint32_t
pickShapedTenant(Rng &rng)
{
    const double pick = rng.uniform();
    return pick < 0.45 ? 0 : pick < 0.9 ? 1 : 2;
}

/** Bytes of version @p version of @p tenant's @p key: a stale buffer,
 *  or one the new value was never copied into, cannot hold them. */
std::vector<std::uint8_t>
versionedValue(std::uint32_t tenant, std::uint64_t key,
               std::uint64_t version, std::uint32_t size)
{
    const std::uint64_t seed =
        deriveSeed(deriveSeed(tenant, key), version);
    std::vector<std::uint8_t> value(size);
    for (std::uint32_t i = 0; i < size; ++i)
        value[i] = static_cast<std::uint8_t>(
            Rng::mix64(seed + i / 8) >> (i % 8 * 8));
    return value;
}

/** What one eviction pass did. */
struct PassResult
{
    std::vector<std::uint64_t> tenantEvictions;
    std::vector<bool> shardRan; ///< executed a plan
};

/**
 * One eviction pass the way the engine runs it: plan victims,
 * drawing tenants in proportion to their unplanned bytes, until
 * occupancy fits @p budget; then execute every planned shard on
 * @p pool.
 */
PassResult
evictionPass(ShardedStore &store, ThreadPool &pool, Rng &rng,
             std::uint64_t budget)
{
    PassResult pass{std::vector<std::uint64_t>(kShapedTenants, 0),
                    std::vector<bool>(store.shardCount(), false)};
    std::vector<std::uint64_t> unplanned(kShapedTenants);
    std::uint64_t occupancy = 0;
    for (std::uint32_t t = 0; t < kShapedTenants; ++t) {
        unplanned[t] = store.tenantBytes(t);
        occupancy += unplanned[t];
    }
    while (occupancy > budget) {
        std::uint64_t draw = rng.below(occupancy);
        std::uint32_t t = 0;
        while (draw >= unplanned[t])
            draw -= unplanned[t++];
        const std::uint64_t freed = store.planEviction(t);
        EXPECT_GT(freed, 0u) << "tenant " << t;
        if (freed == 0)
            break;
        unplanned[t] -= freed;
        occupancy -= freed;
        ++pass.tenantEvictions[t];
    }
    for (std::uint32_t sh = 0; sh < store.shardCount(); ++sh)
        if (store.plannedEvictions(sh) != 0) {
            pass.shardRan[sh] = true;
            pool.submit([&store, sh] { store.evictPlanned(sh); });
        }
    pool.wait();
    return pass;
}

} // namespace

TEST(ShardedStoreValues, BytesSurviveEvictionOverwriteAndRehash)
{
    // Rounds of puts and gets, applied per shard on a pool, each
    // followed by one eviction pass. Puts overwrite live keys with
    // new sizes, both larger and smaller. After every pass each live
    // key must read back exactly the bytes last put.
    ShardedStore store(shapedStore());
    ThreadPool pool(4);
    Rng rng(1402);
    constexpr std::uint64_t kBudget = 1 << 20;

    struct Op
    {
        std::uint32_t tenant;
        std::uint64_t key;
        std::uint64_t version; ///< 0: a get
        std::uint32_t size;
    };
    struct Version
    {
        std::uint64_t version;
        std::uint32_t size;
    };
    /** Per tenant: keys live after the last pass or put since. */
    std::vector<std::map<std::uint64_t, Version>> model(kShapedTenants);
    std::uint64_t next_version = 1;
    std::uint64_t grown = 0, shrunk = 0;
    std::vector<std::uint64_t> evictions(kShapedTenants, 0);

    for (std::uint32_t round = 0; round < 24; ++round) {
        std::vector<std::vector<Op>> by_shard(store.shardCount());
        for (std::uint32_t op = 0; op < 1000; ++op) {
            const std::uint32_t t = pickShapedTenant(rng);
            const ValueShape &shape = kValueShapes[t];
            const std::uint64_t key = rng.below(shape.keys);
            Op o{t, key, 0, 0};
            if (rng.chance(0.75)) {
                o.version = next_version++;
                o.size = static_cast<std::uint32_t>(
                    rng.between(shape.vmin, shape.vmax));
                const auto it = model[t].find(key);
                if (it != model[t].end()) {
                    grown += o.size > it->second.size ? 1 : 0;
                    shrunk += o.size < it->second.size ? 1 : 0;
                }
                model[t][key] = Version{o.version, o.size};
            }
            by_shard[store.shardOf(t, key)].push_back(o);
        }
        for (const std::vector<Op> &ops : by_shard)
            pool.submit([&store, &ops] {
                for (const Op &o : ops) {
                    if (o.version == 0)
                        store.get(o.tenant, o.key);
                    else
                        store.put(o.tenant, o.key,
                                  versionedValue(o.tenant, o.key,
                                                 o.version, o.size));
                }
            });
        pool.wait();

        const PassResult pass = evictionPass(store, pool, rng, kBudget);
        for (std::uint32_t t = 0; t < kShapedTenants; ++t)
            evictions[t] += pass.tenantEvictions[t];

        // A hit must return the last bytes put; a miss was evicted.
        std::uint64_t live = 0, live_bytes = 0;
        std::vector<std::uint8_t> out;
        for (std::uint32_t t = 0; t < kShapedTenants; ++t)
            for (auto it = model[t].begin(); it != model[t].end();) {
                if (!store.get(t, it->first, &out).hit) {
                    it = model[t].erase(it);
                    continue;
                }
                ASSERT_TRUE(out == versionedValue(t, it->first,
                                                  it->second.version,
                                                  it->second.size))
                    << "round " << round << " tenant " << t << " key "
                    << it->first;
                ++live;
                live_bytes += it->second.size;
                ++it;
            }
        ASSERT_EQ(live, store.objectCount()) << "round " << round;
        ASSERT_EQ(live_bytes, store.totalBytes()) << "round " << round;
    }
    EXPECT_GT(store.rehashes(), 0u);
    EXPECT_GT(grown, 0u);
    EXPECT_GT(shrunk, 0u);
    for (std::uint32_t t = 0; t < kShapedTenants; ++t)
        EXPECT_GT(evictions[t], 100u) << "tenant " << t;
}

namespace
{

/** The capacity the store must reserve for a @p bytes value: 16-byte
 *  steps up to 128 B, then 8 equal steps per power of two. */
std::uint64_t
classCapacity(std::uint64_t bytes)
{
    if (bytes <= 128)
        return (bytes + 15) / 16 * 16;
    const std::uint64_t octave = std::bit_floor(bytes - 1);
    const std::uint64_t step = octave / 8;
    return octave + (bytes - octave + step - 1) / step * step;
}

} // namespace

TEST(ShardedStoreSparePool, BuffersTakeTheirClassCapacity)
{
    // In a one-shard store, the buffer an eviction just pooled is
    // the only spare, so spareBytes() is its capacity.
    ShardedStore store(singleShard(1));
    std::vector<std::uint32_t> sizes;
    for (std::uint32_t n = 1; n <= 600; ++n)
        sizes.push_back(n);
    for (std::uint32_t n = 601; n < (4u << 20); n = n * 9 / 8 + 1)
        sizes.push_back(n);
    for (const std::uint32_t n : sizes) {
        store.put(0, n, bytesOf(n, 1));
        ASSERT_EQ(store.evictOneFrom(0), n);
        const std::uint64_t capacity = store.spareBytes();
        ASSERT_EQ(capacity, classCapacity(n)) << n << " B";
        if (n <= 128)
            ASSERT_LT(capacity - n, 16u) << n << " B";
        else
            ASSERT_LT((capacity - n) * 8, n) << n << " B";
    }

    // An overwrite that fits keeps its buffer; one that does not
    // gets a buffer of the new size's class.
    store.put(0, 1, bytesOf(2000, 1));
    store.put(0, 1, bytesOf(100, 2));
    ASSERT_EQ(store.evictOneFrom(0), 100u);
    EXPECT_EQ(store.spareBytes(), classCapacity(2000));
    store.put(0, 2, bytesOf(100, 3));
    store.put(0, 2, bytesOf(3000, 4));
    ASSERT_EQ(store.evictOneFrom(0), 3000u);
    EXPECT_EQ(store.spareBytes(), classCapacity(3000));
}

TEST(ShardedStoreSparePool, HoldsAtMostTheLatestPassOfEvictions)
{
    // A model tracks each live buffer's capacity, so the capacity a
    // pass evicts per shard is known. Right after a pass, the shards
    // that ran hold exactly what they evicted (their older spares
    // are freed) and the others hold no more than their own latest
    // pass evicted; puts only take spares away.
    ShardedStore store(shapedStore());
    ThreadPool pool(4);
    Rng rng(97);
    constexpr std::uint64_t kBudget = 1 << 20;

    struct Buffer
    {
        std::uint32_t size = 0;
        std::uint64_t capacity = 0;
    };
    std::vector<std::map<std::uint64_t, Buffer>> model(kShapedTenants);
    std::vector<std::uint64_t> latest_pass(store.shardCount(), 0);
    std::uint64_t reused = 0;

    for (std::uint32_t round = 0; round < 24; ++round) {
        const std::uint64_t spare_before = store.spareBytes();
        for (std::uint32_t op = 0; op < 1000; ++op) {
            const std::uint32_t t = pickShapedTenant(rng);
            const ValueShape &shape = kValueShapes[t];
            const std::uint64_t key = rng.below(shape.keys);
            const auto size = static_cast<std::uint32_t>(
                rng.between(shape.vmin, shape.vmax));
            store.put(t, key, bytesOf(size, 5));
            Buffer &b = model[t][key];
            b.size = size;
            if (size > b.capacity)
                b.capacity = classCapacity(size);
        }
        const std::uint64_t spare_after_puts = store.spareBytes();
        std::uint64_t bound = 0;
        for (const std::uint64_t cap : latest_pass)
            bound += cap;
        ASSERT_LE(spare_after_puts, bound) << "round " << round;
        ASSERT_LE(spare_after_puts, spare_before) << "round " << round;
        reused += spare_before - spare_after_puts;

        const PassResult pass = evictionPass(store, pool, rng, kBudget);
        std::vector<std::uint64_t> evicted(store.shardCount(), 0);
        for (std::uint32_t t = 0; t < kShapedTenants; ++t)
            for (auto it = model[t].begin(); it != model[t].end();) {
                if (store.get(t, it->first).hit) {
                    ++it;
                    continue;
                }
                evicted[store.shardOf(t, it->first)] +=
                    it->second.capacity;
                it = model[t].erase(it);
            }
        std::uint64_t ran = 0, idle = 0;
        for (std::uint32_t sh = 0; sh < store.shardCount(); ++sh) {
            if (pass.shardRan[sh]) {
                latest_pass[sh] = evicted[sh];
                ran += evicted[sh];
            } else {
                ASSERT_EQ(evicted[sh], 0u) << "shard " << sh;
                idle += latest_pass[sh];
            }
        }
        const std::uint64_t spare = store.spareBytes();
        ASSERT_GE(spare, ran) << "round " << round;
        ASSERT_LE(spare, ran + idle) << "round " << round;
    }
    EXPECT_GT(reused, 0u);
}

namespace
{

/** What a get returned: its flags and the bytes it read back. */
struct GetRecord
{
    bool hit = false;
    bool shadowHit = false;
    std::vector<std::uint8_t> value;

    bool operator==(const GetRecord &) const = default;
};

/** Every store-wide reading the store offers must agree. */
void
expectSameAccounting(const ShardedStore &a, const ShardedStore &b,
                     std::uint32_t tenants, const std::string &where)
{
    for (std::uint32_t t = 0; t < tenants; ++t) {
        EXPECT_EQ(a.hits(t), b.hits(t)) << where << " tenant " << t;
        EXPECT_EQ(a.misses(t), b.misses(t)) << where << " tenant " << t;
        EXPECT_EQ(a.shadowHits(t), b.shadowHits(t))
            << where << " tenant " << t;
        EXPECT_EQ(a.tenantBytes(t), b.tenantBytes(t))
            << where << " tenant " << t;
    }
    EXPECT_EQ(a.totalBytes(), b.totalBytes()) << where;
    EXPECT_EQ(a.objectCount(), b.objectCount()) << where;
    EXPECT_EQ(a.rehashes(), b.rehashes()) << where;
}

} // namespace

TEST(ShardLockEquivalence, MatchesPerOpGetAndPut)
{
    // Twin stores get the same ops in the same per-shard order: one
    // through the store's get/put, one through a shard lock per
    // shard, both on a pool. Tables start at 16 slots, so they grow;
    // puts overwrite live keys with larger and smaller values; each
    // round ends with the same planned eviction pass on both, so
    // later gets also see ghosts.
    ShardedStore per_op(shapedStore());
    ShardedStore locked(shapedStore());
    ThreadPool pool(4);
    Rng rng(1515);
    constexpr std::uint64_t kBudget = 1 << 20;

    struct Op
    {
        std::uint32_t tenant;
        std::uint64_t key;
        std::uint32_t size; ///< 0: a get
        std::uint64_t version;
    };
    std::vector<std::map<std::uint64_t, std::uint32_t>> sizes(
        kShapedTenants);
    std::uint64_t next_version = 1;
    std::uint64_t grown = 0, shrunk = 0, hits = 0, shadow = 0;

    for (std::uint32_t round = 0; round < 16; ++round) {
        const std::string where = "round " + std::to_string(round);
        std::vector<std::vector<Op>> by_shard(per_op.shardCount());
        for (std::uint32_t op = 0; op < 1500; ++op) {
            const std::uint32_t t = pickShapedTenant(rng);
            const ValueShape &shape = kValueShapes[t];
            const std::uint64_t key = rng.below(shape.keys);
            Op o{t, key, 0, 0};
            if (rng.chance(0.5)) {
                o.size = static_cast<std::uint32_t>(
                    rng.between(shape.vmin, shape.vmax));
                o.version = next_version++;
                std::uint32_t &last = sizes[t][key];
                grown += last != 0 && o.size > last ? 1 : 0;
                shrunk += o.size < last ? 1 : 0;
                last = o.size;
            }
            by_shard[per_op.shardOf(t, key)].push_back(o);
        }

        // Apply shard sh's ops through `via`, the store or a shard
        // lock, keeping one record per get in op order.
        const auto applyShard = [&by_shard](auto &via, std::uint32_t sh,
                                            std::vector<GetRecord> &got) {
            for (const Op &o : by_shard[sh]) {
                if (o.size != 0) {
                    via.put(o.tenant, o.key,
                            versionedValue(o.tenant, o.key, o.version,
                                           o.size));
                    continue;
                }
                GetRecord r;
                const auto res = via.get(o.tenant, o.key, &r.value);
                r.hit = res.hit;
                r.shadowHit = res.shadowHit;
                got.push_back(std::move(r));
            }
        };
        std::vector<std::vector<GetRecord>> got_per_op(by_shard.size());
        std::vector<std::vector<GetRecord>> got_locked(by_shard.size());
        for (std::uint32_t sh = 0; sh < by_shard.size(); ++sh) {
            pool.submit([&, sh] { applyShard(per_op, sh, got_per_op[sh]); });
            pool.submit([&, sh] {
                ShardedStore::ShardLock lock = locked.lockShard(sh);
                applyShard(lock, sh, got_locked[sh]);
            });
        }
        pool.wait();
        for (std::uint32_t sh = 0; sh < by_shard.size(); ++sh) {
            ASSERT_EQ(got_per_op[sh].size(), got_locked[sh].size());
            for (std::size_t i = 0; i < got_per_op[sh].size(); ++i) {
                const GetRecord &r = got_per_op[sh][i];
                ASSERT_TRUE(r == got_locked[sh][i])
                    << where << " shard " << sh << " get " << i;
                ASSERT_EQ(r.hit, !r.value.empty());
                hits += r.hit ? 1 : 0;
                shadow += r.shadowHit ? 1 : 0;
            }
        }
        expectSameAccounting(per_op, locked, kShapedTenants, where);

        Rng draws_per_op(deriveSeed(1515, round));
        Rng draws_locked = draws_per_op;
        const PassResult a =
            evictionPass(per_op, pool, draws_per_op, kBudget);
        const PassResult b =
            evictionPass(locked, pool, draws_locked, kBudget);
        EXPECT_EQ(a.tenantEvictions, b.tenantEvictions) << where;
        EXPECT_EQ(a.shardRan, b.shardRan) << where;
        expectSameAccounting(per_op, locked, kShapedTenants,
                             where + " after eviction");
    }
    EXPECT_GT(per_op.rehashes(), 0u);
    EXPECT_GT(grown, 0u);
    EXPECT_GT(shrunk, 0u);
    EXPECT_GT(hits, 0u);
    EXPECT_GT(shadow, 0u);
}

TEST(ShardLockDeathTest, ForeignKeysAndBadTenantsPanic)
{
    StoreConfig cfg;
    cfg.shards = 8;
    cfg.tenants = 2;
    ShardedStore store(cfg);
    std::uint64_t foreign = 0;
    while (store.shardOf(0, foreign) == 0)
        ++foreign;
    const auto value = bytesOf(8, 1);

    EXPECT_DEATH(store.lockShard(0).put(0, foreign, value),
                 "routes to another shard");
    EXPECT_DEATH(store.lockShard(0).get(0, foreign),
                 "routes to another shard");
    EXPECT_DEATH(store.lockShard(0).put(2, 0, value), "bad tenant");
    EXPECT_DEATH(store.lockShard(0).get(2, 0), "bad tenant");
    EXPECT_DEATH(store.lockShard(8), "bad shard");
}

TEST(ShardedStore, RehashPreservesObjectsAndRecency)
{
    StoreConfig cfg = singleShard(1);
    cfg.initialSlots = 8; // force growth quickly
    ShardedStore store(cfg);

    const std::uint32_t kKeys = 200;
    for (std::uint32_t k = 0; k < kKeys; ++k)
        store.put(0, k, bytesOf(8, static_cast<std::uint8_t>(k)));
    EXPECT_GT(store.rehashes(), 0u);
    EXPECT_EQ(store.objectCount(), kKeys);

    for (std::uint32_t k = 0; k < kKeys; ++k) {
        std::vector<std::uint8_t> v;
        ASSERT_TRUE(store.get(0, k, &v).hit) << "key " << k;
        EXPECT_EQ(v, bytesOf(8, static_cast<std::uint8_t>(k)));
    }
    // Insert order is recency order here (the gets above refreshed
    // in the same order), so eviction starts at key 0.
    EXPECT_EQ(store.evictOneFrom(0), 8u);
    EXPECT_FALSE(store.get(0, 0).hit);
}

TEST(ShardedStoreHammer, ConcurrentGetPutKeepsAccountingExact)
{
    // Two threads get and put anywhere through the store's own
    // get/put; two more each own half the shards and apply short
    // runs of ops through shard locks; a fifth polls the lock-free
    // readers while they write. Every thread counts its gets per
    // tenant, so the statistics must add up exactly.
    StoreConfig cfg;
    cfg.shards = 8;
    cfg.tenants = 4;
    cfg.capacityBytes = 64 << 20;
    ShardedStore store(cfg);

    constexpr std::uint32_t kPerOpThreads = 2;
    constexpr std::uint32_t kLockThreads = 2;
    constexpr std::uint32_t kOpsPerThread = 20000;
    constexpr std::uint32_t kRun = 32;
    constexpr std::uint32_t kValue = 64;
    constexpr std::uint64_t kKeys = 5000;

    // keys[shard][tenant]: the keys that route to that shard.
    std::vector<std::vector<std::vector<std::uint64_t>>> keys(
        cfg.shards, std::vector<std::vector<std::uint64_t>>(4));
    for (std::uint32_t tenant = 0; tenant < 4; ++tenant)
        for (std::uint64_t key = 0; key < kKeys; ++key)
            keys[store.shardOf(tenant, key)][tenant].push_back(key);

    constexpr std::uint32_t kWriters = kPerOpThreads + kLockThreads;
    std::vector<std::vector<std::uint64_t>> gets(
        kWriters, std::vector<std::uint64_t>(4, 0));
    std::atomic<bool> writing{true};

    std::vector<std::thread> workers;
    for (std::uint32_t w = 0; w < kPerOpThreads; ++w) {
        workers.emplace_back([&store, &gets, w]() {
            Rng rng(deriveSeed(99, std::uint64_t{w}));
            for (std::uint32_t i = 0; i < kOpsPerThread; ++i) {
                const auto tenant =
                    static_cast<std::uint32_t>(rng.below(4));
                const std::uint64_t key = rng.below(kKeys);
                if (rng.chance(0.5)) {
                    store.put(tenant, key, bytesOf(kValue, 0x5A));
                } else {
                    store.get(tenant, key);
                    ++gets[w][tenant];
                }
            }
        });
    }
    for (std::uint32_t l = 0; l < kLockThreads; ++l) {
        const std::uint32_t w = kPerOpThreads + l;
        workers.emplace_back([&store, &keys, &gets, &cfg, w, l]() {
            Rng rng(deriveSeed(99, std::uint64_t{w}));
            const std::uint32_t owned = cfg.shards / kLockThreads;
            for (std::uint32_t i = 0; i < kOpsPerThread; i += kRun) {
                const auto sh = static_cast<std::uint32_t>(
                    l * owned + rng.below(owned));
                ShardedStore::ShardLock lock = store.lockShard(sh);
                for (std::uint32_t j = 0; j < kRun; ++j) {
                    const auto tenant =
                        static_cast<std::uint32_t>(rng.below(4));
                    const std::vector<std::uint64_t> &here =
                        keys[sh][tenant];
                    const std::uint64_t key = here[rng.below(here.size())];
                    if (rng.chance(0.5)) {
                        lock.put(tenant, key, bytesOf(kValue, 0x5A));
                    } else {
                        lock.get(tenant, key);
                        ++gets[w][tenant];
                    }
                }
            }
        });
    }
    std::uint64_t polls = 0;
    std::thread poller([&store, &writing, &polls]() {
        // Each per-shard counter only grows, and a thread's relaxed
        // loads of one atomic never go back in time, so the summed
        // accesses never shrink between polls.
        std::vector<std::uint64_t> last(4, 0);
        while (writing.load(std::memory_order_relaxed)) {
            for (std::uint32_t t = 0; t < 4; ++t) {
                const std::uint64_t accesses =
                    store.hits(t) + store.misses(t);
                EXPECT_GE(accesses, last[t]) << "tenant " << t;
                last[t] = accesses;
                (void)store.shadowHits(t);
                (void)store.tenantBytes(t);
            }
            (void)store.totalBytes();
            (void)store.objectCount();
            ++polls;
        }
    });
    for (auto &w : workers)
        w.join();
    writing.store(false, std::memory_order_relaxed);
    poller.join();
    EXPECT_GT(polls, 0u);

    // Every live object is kValue bytes, so the summed counters
    // must agree exactly with the object count.
    EXPECT_EQ(store.totalBytes(), store.objectCount() * kValue);
    std::uint64_t tenant_sum = 0;
    for (std::uint32_t t = 0; t < 4; ++t)
        tenant_sum += store.tenantBytes(t);
    EXPECT_EQ(tenant_sum, store.totalBytes());
    for (std::uint32_t t = 0; t < 4; ++t) {
        std::uint64_t counted = 0;
        for (const std::vector<std::uint64_t> &per_tenant : gets)
            counted += per_tenant[t];
        EXPECT_GT(counted, 0u) << "tenant " << t;
        EXPECT_EQ(store.hits(t) + store.misses(t), counted)
            << "tenant " << t;
    }
}

// --- ZipfGenerator ------------------------------------------------

TEST(Zipf, RanksStayInRangeAndSkewTowardsHead)
{
    const std::uint64_t kN = 1000;
    ZipfGenerator zipf(kN, 0.99);
    Rng rng(7);

    constexpr std::uint32_t kDraws = 200000;
    std::vector<std::uint32_t> counts(kN, 0);
    for (std::uint32_t i = 0; i < kDraws; ++i) {
        const std::uint64_t rank = zipf.next(rng);
        ASSERT_LT(rank, kN);
        ++counts[rank];
    }

    // Under s=0.99 the head rank should take roughly 1/H_n of the
    // mass (~12.8% for n=1000) — far above uniform 0.1%.
    EXPECT_GT(counts[0], kDraws / 20);
    // Popularity decreases along the head of the distribution.
    EXPECT_GT(counts[0], counts[9]);
    EXPECT_GT(counts[9], counts[99]);
}

TEST(Zipf, ExponentZeroIsUniform)
{
    const std::uint64_t kN = 16;
    ZipfGenerator zipf(kN, 0.0);
    Rng rng(11);

    constexpr std::uint32_t kDraws = 160000;
    std::vector<std::uint32_t> counts(kN, 0);
    for (std::uint32_t i = 0; i < kDraws; ++i)
        ++counts[zipf.next(rng)];

    // Chi-square against uniform, df 15, alpha 0.001.
    const double expected = double(kDraws) / double(kN);
    double chi2 = 0.0;
    for (const std::uint32_t c : counts) {
        const double d = double(c) - expected;
        chi2 += d * d / expected;
    }
    EXPECT_LT(chi2, 37.697);
}

// --- LoadGen ------------------------------------------------------

TEST(LoadGen, ValueSizeIsPureFunctionOfTenantAndKey)
{
    TenantSpec spec;
    spec.vmin = 64;
    spec.vmax = 256;
    LoadGen gen({spec, spec}, 4, 42);

    for (std::uint64_t key = 0; key < 200; ++key) {
        const std::uint32_t v = gen.valueBytes(0, key);
        EXPECT_GE(v, spec.vmin);
        EXPECT_LE(v, spec.vmax);
        EXPECT_EQ(v, gen.valueBytes(0, key)) << "not pure";
    }
    // Tenants get independent size streams.
    bool differs = false;
    for (std::uint64_t key = 0; key < 64 && !differs; ++key)
        differs = gen.valueBytes(0, key) != gen.valueBytes(1, key);
    EXPECT_TRUE(differs);
}

TEST(LoadGen, StreamsAreDeterministicAndIndependent)
{
    TenantSpec spec;
    spec.keys = 1000;
    LoadGen a({spec}, 4, 42);
    LoadGen b({spec}, 4, 42);

    std::vector<Request> ba(256), bb(256);
    a.fill(2, ba);
    b.fill(2, bb);
    for (std::size_t i = 0; i < ba.size(); ++i) {
        EXPECT_EQ(ba[i].key, bb[i].key);
        EXPECT_EQ(ba[i].isPut, bb[i].isPut);
        EXPECT_EQ(ba[i].valueBytes, bb[i].valueBytes);
    }

    // A different stream draws a different sequence.
    std::vector<Request> other(256);
    a.fill(3, other);
    bool differs = false;
    for (std::size_t i = 0; i < other.size() && !differs; ++i)
        differs = other[i].key != ba[i].key;
    EXPECT_TRUE(differs);
}

// --- ServeEngine run length ----------------------------------------

namespace
{

/** A tiny one-tenant engine config. */
ServeConfig
tinyEngine()
{
    ServeConfig config;
    TenantSpec spec;
    spec.keys = 1000;
    config.tenants = {spec};
    config.streams = 2;
    config.batch = 64;
    config.timing = false;
    return config;
}

} // namespace

TEST(ServeEngineSecondsDeathTest, WallClockRunRefusesSecondsTheClockCannotHold)
{
    // Converting these to a clock duration is undefined behaviour;
    // on x86 it gave a deadline in the past and a run of zero ops.
    for (const double seconds :
         {std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN(), 1e300}) {
        ServeConfig config = tinyEngine();
        config.seconds = seconds;
        EXPECT_EXIT(ServeEngine{config}, testing::ExitedWithCode(1),
                    "seconds must be finite")
            << seconds;
    }
}

TEST(ServeEngineDeathTest, RefusesRoundsTooLargeToIndex)
{
    // The engine indexes a round's requests with 32 bits; the check
    // comes before any round buffer is allocated.
    ServeConfig config = tinyEngine();
    config.streams = 1u << 16;
    config.batch = (1u << 16) + 1;
    EXPECT_EXIT(ServeEngine{config}, testing::ExitedWithCode(1),
                "32-bit indexable");
}

TEST(ServeEngineSeconds, BudgetedRunIgnoresSeconds)
{
    // A budgeted run never reads its seconds, so it need not fit
    // the clock; the run must still complete its ops.
    ServeConfig config = tinyEngine();
    config.opBudget = 1000;
    config.seconds = std::numeric_limits<double>::infinity();
    EXPECT_EQ(ServeEngine(config).run().ops, 1000u);
}

// --- parseTenantSpec ----------------------------------------------

TEST(TenantSpecParse, SetsNamedFieldsAndKeepsBaseDefaults)
{
    TenantSpec spec;
    spec.keys = 111;
    const Status st = parseTenantSpec(
        "zipf=0.8,get=0.9,vmin=32,vmax=64,weight=2,slo-hit=0.5,"
        "floor=0.25",
        spec);
    ASSERT_TRUE(st.ok()) << st.message();
    EXPECT_EQ(spec.keys, 111u) << "unset key must keep the base";
    EXPECT_DOUBLE_EQ(spec.zipf, 0.8);
    EXPECT_DOUBLE_EQ(spec.getFrac, 0.9);
    EXPECT_EQ(spec.vmin, 32u);
    EXPECT_EQ(spec.vmax, 64u);
    EXPECT_DOUBLE_EQ(spec.weight, 2.0);
    EXPECT_DOUBLE_EQ(spec.sloHit, 0.5);
    EXPECT_DOUBLE_EQ(spec.floorFrac, 0.25);
}

TEST(TenantSpecParse, RejectsBadInput)
{
    TenantSpec spec;
    EXPECT_FALSE(parseTenantSpec("bogus=1", spec).ok());
    EXPECT_FALSE(parseTenantSpec("keys=0", spec).ok());
    EXPECT_FALSE(parseTenantSpec("get=1.5", spec).ok());
    EXPECT_FALSE(parseTenantSpec("vmin=100,vmax=50", spec).ok());
    EXPECT_FALSE(parseTenantSpec("floor=1.0", spec).ok());
    EXPECT_FALSE(parseTenantSpec("keys", spec).ok());
}

// --- Histogram::quantile ------------------------------------------

TEST(HistogramQuantile, InterpolatesInsideTheLandingBucket)
{
    const std::vector<double> bounds = {10.0, 20.0, 40.0};
    telemetry::Histogram h(bounds);
    // 10 observations in (10, 20]: ranks spread across one bucket.
    for (int i = 0; i < 10; ++i)
        h.observe(15.0);

    // All mass in bucket (10, 20]: the median interpolates to the
    // middle of that bucket regardless of the raw values.
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 15.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);
}

TEST(HistogramQuantile, FirstBucketStartsAtZeroOverflowSaturates)
{
    const std::vector<double> bounds = {100.0, 200.0};
    telemetry::Histogram h(bounds);
    h.observe(50.0);   // first bucket
    h.observe(1000.0); // overflow

    EXPECT_DOUBLE_EQ(h.quantile(0.25), 50.0); // half of [0, 100]
    // Rank lands in the overflow bucket: saturate at the last bound.
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 200.0);
    // Out-of-range q is clamped.
    EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));

    telemetry::Histogram empty(bounds);
    EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
}

TEST(HistogramQuantile, ExponentialBoundsBuildTheLatencyLadder)
{
    const auto bounds =
        telemetry::Histogram::exponentialBounds(512.0, 2.0, 4);
    ASSERT_EQ(bounds.size(), 4u);
    EXPECT_DOUBLE_EQ(bounds[0], 512.0);
    EXPECT_DOUBLE_EQ(bounds[3], 4096.0);
    EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
}

// --- Equation 1 fallback counter ----------------------------------

TEST(Eq1Fallback, NoDonorFallbacksAreCounted)
{
    // Every tenant at or below target: raw E all clamp to zero and
    // the distribution falls back to miss shares — one activation.
    Eq1Stats stats;
    const auto e = evictionDistribution({0.2, 0.2}, {0.5, 0.5},
                                        {0.75, 0.25}, 1024, 64,
                                        &stats);
    EXPECT_EQ(stats.fallbackActivations, 1u);
    EXPECT_DOUBLE_EQ(e[0], 0.75);
    EXPECT_DOUBLE_EQ(e[1], 0.25);

    // Zero misses as well: uniform fallback, still one activation.
    Eq1Stats stats2;
    const auto u = evictionDistribution({0.2, 0.2}, {0.5, 0.5},
                                        {0.0, 0.0}, 1024, 64,
                                        &stats2);
    EXPECT_EQ(stats2.fallbackActivations, 1u);
    EXPECT_DOUBLE_EQ(u[0], 0.5);

    // A live donor: no fallback counted.
    Eq1Stats stats3;
    evictionDistribution({0.8, 0.2}, {0.5, 0.5}, {0.5, 0.5}, 1024,
                         64, &stats3);
    EXPECT_EQ(stats3.fallbackActivations, 0u);
}

// --- target policies ----------------------------------------------

namespace
{

TenantSnapshot
snapshotOf(std::uint64_t capacity,
           std::vector<std::uint64_t> occupancy,
           std::vector<std::uint64_t> hits,
           std::vector<std::uint64_t> misses,
           std::vector<std::uint64_t> shadow)
{
    TenantSnapshot snap;
    snap.capacityBytes = capacity;
    snap.avgObjectBytes = 1;
    snap.occupancyBytes = std::move(occupancy);
    snap.hits = std::move(hits);
    snap.misses = std::move(misses);
    snap.shadowHits = std::move(shadow);
    return snap;
}

} // namespace

TEST(TenantPolicies, FairSharesFollowWeights)
{
    auto policy =
        makeTenantPolicy('F', {{1.0, 0, 0}, {3.0, 0, 0}});
    ASSERT_NE(policy, nullptr);
    const auto t = policy->computeTargets(toIntervalSnapshot(
        snapshotOf(1000, {500, 500}, {10, 10}, {10, 10}, {0, 0})));
    ASSERT_EQ(t.size(), 2u);
    EXPECT_DOUBLE_EQ(t[0], 0.25);
    EXPECT_DOUBLE_EQ(t[1], 0.75);
}

TEST(TenantPolicies, HitMaxRewardsDemonstratedReuse)
{
    auto policy = makeTenantPolicy('H', {{}, {}});
    ASSERT_NE(policy, nullptr);
    // Tenant 1 shows far more reuse (hits + shadow hits).
    const auto t = policy->computeTargets(toIntervalSnapshot(snapshotOf(
        1000, {500, 500}, {100, 900}, {50, 50}, {0, 200})));
    ASSERT_EQ(t.size(), 2u);
    EXPECT_GT(t[1], t[0]);
    EXPECT_NEAR(t[0] + t[1], 1.0, 1e-12);
}

TEST(TenantPolicies, QosFloorsAreGuaranteed)
{
    auto policy = makeTenantPolicy(
        'Q', {{1.0, 0.6, 0}, {1.0, 0.0, 0}});
    ASSERT_NE(policy, nullptr);
    const auto t = policy->computeTargets(toIntervalSnapshot(
        snapshotOf(1000, {100, 900}, {10, 990}, {10, 10}, {0, 0})));
    ASSERT_EQ(t.size(), 2u);
    EXPECT_GE(t[0], 0.6);
    EXPECT_NEAR(t[0] + t[1], 1.0, 1e-12);
}

TEST(TenantPolicies, UnknownKindReturnsNull)
{
    EXPECT_EQ(makeTenantPolicy('X', {}), nullptr);
}

// --- TenantArbiter ------------------------------------------------

TEST(TenantArbiter, StartsUniformAndRecomputesEq1)
{
    TenantArbiter arbiter(
        4, makeTenantPolicy('F', std::vector<TenantQos>(4)), 1234);
    for (const double e : arbiter.controller().evictionProbs())
        EXPECT_DOUBLE_EQ(e, 0.25);

    // Fair targets are uniform (0.25); tenant 0 is over target and
    // must absorb most of the eviction probability.
    arbiter.recompute(snapshotOf(1000, {400, 300, 200, 100},
                                 {100, 100, 100, 100},
                                 {100, 100, 100, 100},
                                 {0, 0, 0, 0}));
    EXPECT_EQ(arbiter.recomputes(), 1u);
    const auto &e = arbiter.controller().evictionProbs();
    double sum = 0.0;
    for (const double v : e)
        sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_GT(e[0], e[1]);
    EXPECT_GT(e[1], e[2]);
    EXPECT_GT(e[2], e[3]);
    // Tenant 3 is far under target: never evicted.
    EXPECT_DOUBLE_EQ(e[3], 0.0);
    EXPECT_EQ(arbiter.controller().eq1Fallbacks(), 0u);
}

TEST(TenantArbiter, VictimSamplingMatchesTheDistribution)
{
    TenantArbiter arbiter(
        4, makeTenantPolicy('F', std::vector<TenantQos>(4)), 1234);
    arbiter.recompute(snapshotOf(1000, {400, 300, 200, 100},
                                 {100, 100, 100, 100},
                                 {100, 100, 100, 100},
                                 {0, 0, 0, 0}));
    const std::vector<double> e = arbiter.controller().evictionProbs();

    constexpr std::uint32_t kDraws = 200000;
    std::vector<std::uint32_t> counts(4, 0);
    for (std::uint32_t i = 0; i < kDraws; ++i)
        ++counts[arbiter.sampleVictimTenant()];

    // Pearson chi-square over the cells with mass, alpha 0.001.
    // Critical values: df 1: 10.828, df 2: 13.816, df 3: 16.266.
    static const double kCritical[] = {0.0, 10.828, 13.816, 16.266};
    double chi2 = 0.0;
    std::size_t cells = 0;
    for (std::size_t t = 0; t < e.size(); ++t) {
        const double expected = e[t] * kDraws;
        if (expected < 1e-9) {
            EXPECT_EQ(counts[t], 0u) << "mass-less tenant sampled";
            continue;
        }
        ++cells;
        const double d = double(counts[t]) - expected;
        chi2 += d * d / expected;
    }
    ASSERT_GE(cells, 2u);
    EXPECT_LT(chi2, kCritical[cells - 1]);
}

TEST(TenantArbiter, AllBelowTargetFallsBackAndCounts)
{
    TenantArbiter arbiter(
        2, makeTenantPolicy('F', std::vector<TenantQos>(2)), 99);
    // Both tenants far under their fair 0.5 target.
    arbiter.recompute(
        snapshotOf(1000, {100, 100}, {10, 10}, {30, 10}, {0, 0}));
    EXPECT_EQ(arbiter.controller().eq1Fallbacks(), 1u);
    // Fallback is miss-share proportional.
    EXPECT_NEAR(arbiter.controller().evictionProbs()[0], 0.75, 1e-12);
}

TEST(TenantArbiter, InvariantsHoldUnderInjectedControllerFaults)
{
    // Every control-loop fault class reaches the serving backend
    // through the shared recompute, and checked mode keeps E a
    // distribution through all of them.
    TenantArbiter arbiter(
        3, makeTenantPolicy('H', std::vector<TenantQos>(3)), 31);
    PrismController &ctl = arbiter.controller();
    ctl.setChecked(true);
    std::vector<FaultClause> clauses;
    ASSERT_TRUE(parseFaultSpec("drop@5,stale@3,nan@4,inf@6+1,"
                               "quant@7,shadow@2",
                               clauses)
                    .ok());
    FaultInjector injector(std::move(clauses), 2012);
    ctl.setFaultInjector(&injector);

    constexpr std::uint64_t kIntervals = 20;
    Rng rng(8);
    std::uint64_t dropped = 0;
    for (std::uint64_t i = 1; i <= kIntervals; ++i) {
        std::vector<std::uint64_t> occ(3), hits(3), misses(3),
            shadow(3);
        for (std::size_t t = 0; t < 3; ++t) {
            occ[t] = 100'000 + rng.below(200'000);
            hits[t] = rng.below(5'000);
            misses[t] = 1 + rng.below(3'000);
            shadow[t] = rng.below(1'000);
        }
        arbiter.recompute(
            snapshotOf(1'000'000, occ, hits, misses, shadow));
        if (i % 5 == 0)
            ++dropped;

        double sum = 0.0;
        for (const double e : ctl.evictionProbs()) {
            EXPECT_TRUE(std::isfinite(e));
            EXPECT_GE(e, 0.0);
            sum += e;
        }
        EXPECT_NEAR(sum, 1.0, 1e-9) << "interval " << i;
        EXPECT_EQ(ctl.droppedRecomputes(), dropped) << "interval " << i;
    }
    EXPECT_EQ(ctl.intervalIndex(), kIntervals);
    EXPECT_EQ(ctl.recomputes(), kIntervals - dropped);
    EXPECT_EQ(injector.injectedOf(FaultKind::DropRecompute), dropped);
    EXPECT_GT(injector.injectedOf(FaultKind::StaleSnapshot), 0u);
    EXPECT_GT(injector.injectedOf(FaultKind::PoisonNan), 0u);
    EXPECT_GT(injector.injectedOf(FaultKind::PoisonInf), 0u);
    EXPECT_GT(injector.injectedOf(FaultKind::QuantSaturate), 0u);
    EXPECT_GT(injector.injectedOf(FaultKind::ShadowSkew), 0u);
    EXPECT_GT(ctl.degradedIntervals(), 0u);
}
