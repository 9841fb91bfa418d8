/**
 * @file
 * Sharded in-memory object store: the serving data plane.
 *
 * A key-value store split into N lock-striped shards. Each shard is
 * an open-addressing hash table (linear probing, tombstones,
 * power-of-two slots) whose slots double as nodes of per-tenant
 * intrusive LRU lists, so recency is tracked per tenant per shard
 * with zero extra allocation. Accounting gives the arbiter the
 * occupancy view Equation 1 needs without stopping the world: each
 * shard counts its own bytes and objects and, per tenant, the bytes,
 * hits, misses and shadow hits of its keys. Only the holder of the
 * shard's lock writes them, with a relaxed load and store rather
 * than a locked read-modify-write, and the store-wide readers sum
 * relaxed loads over the shards.
 *
 * Each shard additionally keeps a per-tenant *ghost list* (a bounded
 * FIFO of recently evicted keys): a miss whose key is still in the
 * ghost list is a "shadow hit" — a hit the tenant would have had
 * with more capacity — which is exactly the demand signal the
 * hit-maximising target policy feeds on (the serving analogue of the
 * paper's shadow tags). Membership is a flat linear-probing table
 * of {key, ring slot of the key's latest eviction}, at most half
 * full, with backward-shift deletion instead of tombstones; ring and
 * table are allocated on a list's first eviction, so tenants that
 * never evict in a shard cost nothing.
 *
 * Eviction is split in two. planEviction picks the victim a
 * sequential evictOneFrom would pick, without changing the store:
 * it only records the choice in a shards x tenants plan. Then
 * evictPlanned executes one shard's plan: it unlinks and ghosts the
 * planned objects tail first. evictOneFrom is exactly one plan
 * followed by the execution of its shard.
 *
 * Planning reads each victim's bytes from its LRU list, a pointer
 * chase through cold slots. ShardLock::recordTails moves that chase
 * to the lock holder: it records each tenant's LRU tail, tail first,
 * keeping each object's bytes, as deep as the tenant's count in the
 * shard's previous plan (the records are allocated by the shard's
 * first eviction pass). planEviction reads victims from the record
 * and walks the list only past its end. A record is valid from
 * recordTails until the next get, put, lockShard or evictPlanned on
 * its shard, which discard it; a plan without a valid record walks
 * the list from the tail, so a record changes no choice.
 *
 * Evicted value buffers are not freed: each shard keeps them as
 * spares under its mutex, grouped by size class (16-byte steps up to
 * 128 B, then 8 classes per power of two), and a put that needs a
 * buffer takes a spare of its value's class before it allocates a
 * fresh one at the class capacity, so above 128 B at most 1/8 of a
 * buffer is slack. The reason is where frees would happen: the
 * engine runs eviction tasks on pool workers, so freeing there hands
 * each buffer back to the allocator from a thread other than the one
 * that allocated it, the allocator's slow path. The pool lives for
 * one pass: evictPlanned first frees the spares its shard's previous
 * pass left and no put took, so a shard never holds more spare
 * memory than its latest pass evicted.
 *
 * Concurrency contract: get/put are thread-safe (each holds its
 * key's shard mutex for the one op; the TSan hammer test exercises
 * this) and the occupancy and statistics readers are lock-free.
 * lockShard returns a ShardLock, which holds one shard's mutex until
 * it is destroyed and whose get/put are the store's own for the keys
 * that route to that shard, so a run of ops on one shard takes its
 * lock once. Two rules follow:
 *  - a thread holding a shard's lock must not call the store's own
 *    get/put on that shard, or it self-deadlocks;
 *  - planning is sequential and reads shards without their locks, so
 *    from the first planEviction until the last evictPlanned returns
 *    no get or put may run and no shard lock may be open.
 * evictPlanned calls on distinct shards may run concurrently. A
 * tail record is written only under its shard's lock and read only
 * by the plan, which the second rule orders after every lock hold.
 *
 * Determinism: identical operation sequences per shard produce
 * identical state at any thread count — nothing in a shard depends
 * on global order, only on its own, and a shard's plan fixes its
 * ghost-ring order (tail first per tenant).
 */

#ifndef PRISM_SERVE_SHARDED_STORE_HH
#define PRISM_SERVE_SHARDED_STORE_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "common/rng.hh"

namespace prism::serve
{

/** Sizing knobs for the store. */
struct StoreConfig
{
    std::uint64_t capacityBytes = 64ull << 20;
    /** Lock stripes; rounded up to a power of two, at most 2^31. */
    std::uint32_t shards = 64;
    std::uint32_t tenants = 1;
    /** Ghost-list keys retained per tenant per shard. */
    std::uint32_t ghostPerTenant = 1024;
    /** Initial hash-table slots per shard (power of two). */
    std::uint32_t initialSlots = 1024;
};

/** The sharded object store. */
class ShardedStore
{
    struct Shard;

  public:
    explicit ShardedStore(const StoreConfig &config);

    ShardedStore(const ShardedStore &) = delete;
    ShardedStore &operator=(const ShardedStore &) = delete;

    struct GetResult
    {
        bool hit = false;
        /** Miss whose key was still on the tenant's ghost list. */
        bool shadowHit = false;
    };

    /**
     * Look @p key up for @p tenant. A hit refreshes the object's
     * per-tenant LRU position and, when @p value_out is non-null,
     * copies the value bytes out. A miss checks the ghost list and
     * bumps the tenant's hit/miss/shadow counters accordingly.
     */
    GetResult get(std::uint32_t tenant, std::uint64_t key,
                  std::vector<std::uint8_t> *value_out = nullptr);

    /**
     * Insert or overwrite @p key for @p tenant with @p value bytes.
     * The object becomes the tenant's most recently used; a key
     * resurrected from the ghost list is dropped from it. Never
     * evicts — capacity is enforced by the engine's eviction pass.
     */
    void put(std::uint32_t tenant, std::uint64_t key,
             std::span<const std::uint8_t> value);

    /**
     * Holds one shard's mutex from lockShard until it is destroyed,
     * so a run of ops on that shard takes the lock once. get and put
     * are the store's own; each panics on a bad tenant or on a key
     * that routes to another shard. It refers into the store, so it
     * must not outlive it.
     */
    class ShardLock
    {
      public:
        ShardLock(const ShardLock &) = delete;
        ShardLock &operator=(const ShardLock &) = delete;

        GetResult get(std::uint32_t tenant, std::uint64_t key,
                      std::vector<std::uint8_t> *value_out = nullptr);
        void put(std::uint32_t tenant, std::uint64_t key,
                 std::span<const std::uint8_t> value);

        /** Record each tenant's LRU tail for the next plan (see the
         *  file comment); a no-op before the first eviction pass. */
        void recordTails();

      private:
        friend class ShardedStore;
        ShardLock(ShardedStore &store, std::uint32_t shard);

        /** @p key's slotHash; panics on a bad tenant or a key that
         *  routes to another shard. */
        std::uint64_t hashHere(std::uint32_t tenant,
                               std::uint64_t key) const;

        ShardedStore &store_;
        Shard &shard_;
        std::uint32_t index_;
        std::lock_guard<std::mutex> hold_;
    };

    /** Lock shard @p shard for a run of ops; panics when out of
     *  range. */
    ShardLock lockShard(std::uint32_t shard);

    /** Shard @p key routes to (for the engine's batch partition). */
    std::uint32_t
    shardOf(std::uint32_t tenant, std::uint64_t key) const
    {
        return shardIndex(slotHash(tenant, key));
    }

    std::uint32_t shardCount() const
    {
        return static_cast<std::uint32_t>(shards_.size());
    }
    std::uint64_t capacityBytes() const { return capacity_bytes_; }

    // --- occupancy (lock-free reads, summed over shards) -----------
    /** Bytes of live values tenant @p tenant holds right now. */
    std::uint64_t tenantBytes(std::uint32_t tenant) const
    {
        return sumTenant(tenant, &TenantCounters::bytes);
    }
    /** Bytes of live values across all tenants. */
    std::uint64_t totalBytes() const { return sumShards(&Shard::bytes); }
    /** Live objects across all tenants. */
    std::uint64_t objectCount() const
    {
        return sumShards(&Shard::objects);
    }
    /**
     * Capacity of the spare value buffers all shards hold. Locks
     * every shard in turn; for tests of the pool bound.
     */
    std::uint64_t spareBytes() const;

    /**
     * Plan the eviction evictOneFrom(@p tenant) would perform next,
     * counting the evictions already planned: the tenant's round-
     * robin shard cursor picks the first shard where it still holds
     * an unplanned object, and the victim is the least recent of
     * those, read from the shard's tail record while it lasts.
     * Changes only the plan and the cursor.
     * @return The victim's bytes; 0 when the tenant holds nothing
     * unplanned (the caller then applies its victimless fallback).
     */
    std::uint64_t planEviction(std::uint32_t tenant);

    /** Evictions planned in shard @p shard and not yet executed. */
    std::uint32_t plannedEvictions(std::uint32_t shard) const;

    /**
     * Execute shard @p shard's plan and clear it: free the spares
     * the shard's previous pass left, then evict each tenant's
     * planned count from its LRU tail, keeping the victims' buffers
     * as the shard's new spares, and keep the counts as the next
     * tail record's depths. Panics when the bytes freed differ
     * from the bytes planned (the shard changed between plan and
     * execute). Safe to run concurrently for distinct shards.
     */
    void evictPlanned(std::uint32_t shard);

    /**
     * Evict @p tenant's least-recently-used object: planEviction,
     * then evictPlanned on the shard the plan landed in.
     * @return Bytes freed; 0 when the tenant holds nothing.
     */
    std::uint64_t evictOneFrom(std::uint32_t tenant);

    // --- per-tenant access statistics (monotonic) -------------------
    std::uint64_t hits(std::uint32_t tenant) const
    {
        return sumTenant(tenant, &TenantCounters::hits);
    }
    std::uint64_t misses(std::uint32_t tenant) const
    {
        return sumTenant(tenant, &TenantCounters::misses);
    }
    std::uint64_t shadowHits(std::uint32_t tenant) const
    {
        return sumTenant(tenant, &TenantCounters::shadowHits);
    }

    /** Hash-table growth/compaction events across all shards. */
    std::uint64_t rehashes() const
    {
        return rehashes_.load(std::memory_order_relaxed);
    }

  private:
    static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

    enum class SlotState : std::uint8_t { Empty, Full, Tombstone };

    struct Slot
    {
        std::uint64_t key = 0;
        std::uint32_t tenant = 0;
        SlotState state = SlotState::Empty;
        /** Per-tenant LRU links (slot indices within the shard). */
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
        std::vector<std::uint8_t> value;
    };

    /**
     * Bounded FIFO of evicted keys with O(1) membership. Members map
     * key -> ring slot of its latest eviction. A key put back and
     * evicted again also leaves its older slot in the ring; that
     * slot aging out must not end the membership.
     */
    class GhostList
    {
      public:
        void push(std::uint64_t key, std::uint32_t capacity);
        bool contains(std::uint64_t key) const
        {
            return find(key) != kNil;
        }
        /** Drop @p key's membership; its ring slot ages out FIFO. */
        void erase(std::uint64_t key);

      private:
        /** A table cell; empty when slot == kNil. */
        struct Member
        {
            std::uint64_t key = 0;
            std::uint32_t slot = kNil;
        };

        std::size_t home(std::uint64_t key) const
        {
            return Rng::mix64(key) & (table_.size() - 1);
        }
        /** Table index of @p key's cell; kNil when not a member. */
        std::uint32_t find(std::uint64_t key) const;
        /** Empty cell @p idx, shifting its probe chain back. */
        void removeAt(std::size_t idx);

        std::vector<std::uint64_t> ring_;
        std::uint32_t head_ = 0; ///< next overwrite position
        /** Linear probing, power-of-two size >= 2 x capacity. */
        std::vector<Member> table_;
    };

    using Buffer = std::vector<std::uint8_t>;

    /**
     * An accounting counter. Only the holder of its shard's lock
     * writes it (see add), so readers may load it without the lock.
     */
    using Counter = std::atomic<std::uint64_t>;

    /** Add @p delta (wrapping, so it may subtract) to @p counter: a
     *  relaxed load and store, no locked read-modify-write. Caller
     *  holds the counter's shard lock. */
    static void
    add(Counter &counter, std::uint64_t delta)
    {
        counter.store(counter.load(std::memory_order_relaxed) + delta,
                      std::memory_order_relaxed);
    }

    /** One tenant's accounting in one shard. */
    struct TenantCounters
    {
        Counter bytes{0};
        Counter hits{0};
        Counter misses{0};
        Counter shadowHits{0};
    };

    /** One tenant's LRU tail in one shard, as recordTails left it. */
    struct TailRecord
    {
        /** The tenant's count in the shard's previous plan. */
        std::uint32_t depth = 0;
        /** The object before the recorded ones; kNil at the head. */
        std::uint32_t resume = kNil;
        /** The recorded objects' value bytes, tail first. */
        std::vector<std::uint64_t> bytes;
    };

    struct Shard
    {
        mutable std::mutex mutex;
        std::vector<Slot> slots; ///< power-of-two size
        std::size_t filled = 0;  ///< Full + Tombstone slots
        Counter objects{0};      ///< Full slots (live objects)
        Counter bytes{0};        ///< live value bytes
        // Per-tenant state, indexed by tenant id.
        std::vector<std::uint32_t> lruHead; ///< MRU end
        std::vector<std::uint32_t> lruTail; ///< LRU end
        std::vector<TenantCounters> counters;
        std::vector<GhostList> ghost;
        /**
         * Buffers of values this shard's latest eviction pass
         * evicted and no put has taken yet, indexed by size class.
         * Every buffer is reserved at its class capacity, so any
         * spare of a value's class holds the value.
         */
        std::vector<std::vector<Buffer>> spares;
        /** Per tenant; allocated by the shard's first eviction pass. */
        std::vector<TailRecord> tails;
        /** tails holds the current LRU tails (see recordTails). */
        bool tailsValid = false;
    };

    static std::uint64_t
    slotHash(std::uint32_t tenant, std::uint64_t key)
    {
        return Rng::mix64(key ^ Rng::mix64(0x7E9A9C1B2D3E4F50ULL +
                                           tenant));
    }

    /** Shard a key whose slotHash is @p hash routes to. */
    std::uint32_t
    shardIndex(std::uint64_t hash) const
    {
        return static_cast<std::uint32_t>(hash >> shard_shift_ &
                                          (shards_.size() - 1));
    }

    /** Sum of @p field over the shards (relaxed loads). */
    std::uint64_t sumShards(Counter Shard::*field) const;
    /** Sum of tenant @p tenant's @p field over the shards. */
    std::uint64_t sumTenant(std::uint32_t tenant,
                            Counter TenantCounters::*field) const;

    /** Find @p key's Full slot; kNil when absent. */
    std::uint32_t findSlot(const Shard &shard, std::uint32_t tenant,
                           std::uint64_t key,
                           std::uint64_t hash) const;

    /** One (shard, tenant) cell of the eviction plan. */
    struct PlanCell
    {
        std::uint32_t count = 0;   ///< objects planned, tail first
        std::uint32_t next = kNil; ///< next candidate past the record
        std::uint64_t bytes = 0;   ///< their value bytes
    };

    /** A planned victim: its shard (kNil: none) and its bytes. */
    struct PlannedVictim
    {
        std::uint32_t shard = kNil;
        std::uint64_t bytes = 0;
    };
    /** planEviction, also naming the shard the plan landed in. */
    PlannedVictim planVictim(std::uint32_t tenant);

    std::size_t planIndex(std::uint32_t shard, std::uint32_t tenant) const
    {
        return static_cast<std::size_t>(shard) * tenants_ + tenant;
    }

    void unlink(Shard &shard, std::uint32_t idx);
    void linkFront(Shard &shard, std::uint32_t idx);
    void growShard(Shard &shard);
    /** get and put on @p key's shard, whose lock the caller holds;
     *  @p hash is the key's slotHash. */
    GetResult getLocked(Shard &shard, std::uint32_t tenant,
                        std::uint64_t key, std::uint64_t hash,
                        std::vector<std::uint8_t> *value_out);
    void insertLocked(Shard &shard, std::uint32_t tenant,
                      std::uint64_t key, std::uint64_t hash,
                      std::span<const std::uint8_t> value);
    /** Copy @p value into @p dst, first swapping in a spare of the
     *  value's class, or a fresh buffer, when @p dst is too small. */
    static void storeValue(Shard &shard, Buffer &dst,
                           std::span<const std::uint8_t> value);

    std::uint64_t capacity_bytes_;
    std::uint32_t tenants_;
    std::uint32_t ghost_per_tenant_;
    std::uint32_t shard_shift_; ///< 64 - log2(shards)

    std::vector<Shard> shards_;

    std::atomic<std::uint64_t> rehashes_{0};

    /** Per-tenant round-robin shard cursor (only touched by the
     *  sequential plan). */
    std::vector<std::uint32_t> evict_cursor_;
    /** The eviction plan, shards x tenants, row-major by shard. */
    std::vector<PlanCell> plan_;
};

} // namespace prism::serve

#endif // PRISM_SERVE_SHARDED_STORE_HH
