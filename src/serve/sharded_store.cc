#include "serve/sharded_store.hh"

#include <algorithm>
#include <bit>

#include "common/prism_assert.hh"

namespace prism::serve
{

namespace
{

std::uint64_t
ceilPow2(std::uint64_t v)
{
    return std::bit_ceil(std::max<std::uint64_t>(1, v));
}

} // namespace

void
ShardedStore::GhostList::push(std::uint64_t key,
                              std::uint32_t capacity)
{
    if (capacity == 0 || contains(key))
        return;
    std::uint32_t slot = head;
    if (ring.size() < capacity) {
        slot = static_cast<std::uint32_t>(ring.size());
        ring.push_back(key);
    } else {
        const auto aged = members.find(ring[slot]);
        if (aged != members.end() && aged->second == slot)
            members.erase(aged);
        ring[slot] = key;
        head = (head + 1) % capacity;
    }
    members.emplace(key, slot);
}

ShardedStore::ShardedStore(const StoreConfig &config)
    : capacity_bytes_(config.capacityBytes),
      tenants_(config.tenants),
      ghost_per_tenant_(config.ghostPerTenant)
{
    fatalIf(tenants_ == 0, "ShardedStore: no tenants");
    const auto num_shards = static_cast<std::uint32_t>(
        ceilPow2(std::max<std::uint32_t>(1, config.shards)));
    shard_shift_ =
        64u - static_cast<std::uint32_t>(
                  std::bit_width(num_shards) - 1);
    if (num_shards == 1)
        shard_shift_ = 63; // one shard; any bit goes to shard 0 only
                           // via the explicit mask below

    shards_ = std::vector<Shard>(num_shards);
    const auto slots = static_cast<std::size_t>(
        ceilPow2(std::max<std::uint32_t>(16, config.initialSlots)));
    for (Shard &shard : shards_) {
        shard.slots.resize(slots);
        shard.lruHead.assign(tenants_, kNil);
        shard.lruTail.assign(tenants_, kNil);
        shard.bytes.assign(tenants_, 0);
        shard.ghost.resize(tenants_);
    }

    tenant_bytes_ =
        std::make_unique<std::atomic<std::uint64_t>[]>(tenants_);
    hits_ = std::make_unique<std::atomic<std::uint64_t>[]>(tenants_);
    misses_ =
        std::make_unique<std::atomic<std::uint64_t>[]>(tenants_);
    shadow_hits_ =
        std::make_unique<std::atomic<std::uint64_t>[]>(tenants_);
    for (std::uint32_t t = 0; t < tenants_; ++t) {
        tenant_bytes_[t] = 0;
        hits_[t] = 0;
        misses_[t] = 0;
        shadow_hits_[t] = 0;
    }
    evict_cursor_.assign(tenants_, 0);
}

std::uint32_t
ShardedStore::findSlot(const Shard &shard, std::uint32_t tenant,
                       std::uint64_t key, std::uint64_t hash) const
{
    const std::size_t mask = shard.slots.size() - 1;
    for (std::size_t i = hash & mask;;
         i = (i + 1) & mask) {
        const Slot &slot = shard.slots[i];
        if (slot.state == SlotState::Empty)
            return kNil;
        if (slot.state == SlotState::Full && slot.key == key &&
            slot.tenant == tenant)
            return static_cast<std::uint32_t>(i);
    }
}

void
ShardedStore::unlink(Shard &shard, std::uint32_t idx)
{
    Slot &slot = shard.slots[idx];
    const std::uint32_t t = slot.tenant;
    if (slot.prev != kNil)
        shard.slots[slot.prev].next = slot.next;
    else
        shard.lruHead[t] = slot.next;
    if (slot.next != kNil)
        shard.slots[slot.next].prev = slot.prev;
    else
        shard.lruTail[t] = slot.prev;
    slot.prev = slot.next = kNil;
}

void
ShardedStore::linkFront(Shard &shard, std::uint32_t idx)
{
    Slot &slot = shard.slots[idx];
    const std::uint32_t t = slot.tenant;
    slot.prev = kNil;
    slot.next = shard.lruHead[t];
    if (slot.next != kNil)
        shard.slots[slot.next].prev = idx;
    else
        shard.lruTail[t] = idx;
    shard.lruHead[t] = idx;
}

void
ShardedStore::growShard(Shard &shard)
{
    // Double when genuinely full; a rehash at the same size just
    // purges tombstones (deletes can dominate growth).
    const std::size_t old_size = shard.slots.size();
    const std::size_t new_size =
        shard.used * 2 >= old_size ? old_size * 2 : old_size;

    // Per-tenant MRU->LRU orders survive the move by reinsertion in
    // order: walk each old chain head to tail, move the slot into
    // the new table, and append to the rebuilt chain's tail.
    std::vector<Slot> old_slots(new_size);
    old_slots.swap(shard.slots);
    shard.filled = shard.used;

    const std::size_t mask = new_size - 1;
    for (std::uint32_t t = 0; t < tenants_; ++t) {
        std::uint32_t old_idx = shard.lruHead[t];
        shard.lruHead[t] = shard.lruTail[t] = kNil;
        while (old_idx != kNil) {
            Slot &old_slot = old_slots[old_idx];
            const std::uint32_t next_old = old_slot.next;

            std::size_t i =
                slotHash(old_slot.tenant, old_slot.key) & mask;
            while (shard.slots[i].state == SlotState::Full)
                i = (i + 1) & mask;
            Slot &dst = shard.slots[i];
            dst.key = old_slot.key;
            dst.tenant = old_slot.tenant;
            dst.state = SlotState::Full;
            dst.value = std::move(old_slot.value);
            dst.prev = shard.lruTail[t];
            dst.next = kNil;
            const auto new_idx = static_cast<std::uint32_t>(i);
            if (dst.prev != kNil)
                shard.slots[dst.prev].next = new_idx;
            else
                shard.lruHead[t] = new_idx;
            shard.lruTail[t] = new_idx;

            old_idx = next_old;
        }
    }
    rehashes_.fetch_add(1, std::memory_order_relaxed);
}

void
ShardedStore::insertLocked(Shard &shard, std::uint32_t tenant,
                           std::uint64_t key, std::uint64_t hash,
                           std::span<const std::uint8_t> value)
{
    // Keep the probe chains short: grow/compact at 70% occupied
    // (tombstones included — they lengthen probes like live slots).
    if ((shard.filled + 1) * 10 >= shard.slots.size() * 7)
        growShard(shard);

    const std::size_t mask = shard.slots.size() - 1;
    std::size_t target = SIZE_MAX;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
        Slot &slot = shard.slots[i];
        if (slot.state == SlotState::Empty) {
            if (target == SIZE_MAX) {
                target = i;
                ++shard.filled;
            }
            break;
        }
        if (slot.state == SlotState::Tombstone) {
            if (target == SIZE_MAX)
                target = i;
            continue;
        }
        if (slot.key == key && slot.tenant == tenant) {
            // Overwrite in place: adjust byte accounting and
            // refresh recency.
            const auto old_bytes =
                static_cast<std::uint64_t>(slot.value.size());
            const auto new_bytes =
                static_cast<std::uint64_t>(value.size());
            slot.value.assign(value.begin(), value.end());
            shard.bytes[tenant] += new_bytes - old_bytes;
            tenant_bytes_[tenant].fetch_add(
                new_bytes - old_bytes, std::memory_order_relaxed);
            total_bytes_.fetch_add(new_bytes - old_bytes,
                                   std::memory_order_relaxed);
            unlink(shard, static_cast<std::uint32_t>(i));
            linkFront(shard, static_cast<std::uint32_t>(i));
            return;
        }
    }

    Slot &slot = shard.slots[target];
    slot.key = key;
    slot.tenant = tenant;
    slot.state = SlotState::Full;
    slot.value.assign(value.begin(), value.end());
    ++shard.used;
    linkFront(shard, static_cast<std::uint32_t>(target));

    const auto bytes = static_cast<std::uint64_t>(value.size());
    shard.bytes[tenant] += bytes;
    tenant_bytes_[tenant].fetch_add(bytes,
                                    std::memory_order_relaxed);
    total_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    objects_.fetch_add(1, std::memory_order_relaxed);

    // A key coming back to life stops being a ghost.
    shard.ghost[tenant].erase(key);
}

ShardedStore::GetResult
ShardedStore::get(std::uint32_t tenant, std::uint64_t key,
                  std::vector<std::uint8_t> *value_out)
{
    panicIf(tenant >= tenants_, "ShardedStore::get: bad tenant");
    const std::uint64_t hash = slotHash(tenant, key);
    Shard &shard = shards_[hash >> shard_shift_ &
                           (shards_.size() - 1)];

    GetResult result;
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        const std::uint32_t idx = findSlot(shard, tenant, key, hash);
        if (idx != kNil) {
            result.hit = true;
            unlink(shard, idx);
            linkFront(shard, idx);
            if (value_out)
                *value_out = shard.slots[idx].value;
        } else {
            result.shadowHit = shard.ghost[tenant].contains(key);
        }
    }

    if (result.hit) {
        hits_[tenant].fetch_add(1, std::memory_order_relaxed);
    } else {
        misses_[tenant].fetch_add(1, std::memory_order_relaxed);
        if (result.shadowHit)
            shadow_hits_[tenant].fetch_add(
                1, std::memory_order_relaxed);
    }
    return result;
}

void
ShardedStore::put(std::uint32_t tenant, std::uint64_t key,
                  std::span<const std::uint8_t> value)
{
    panicIf(tenant >= tenants_, "ShardedStore::put: bad tenant");
    const std::uint64_t hash = slotHash(tenant, key);
    Shard &shard = shards_[hash >> shard_shift_ &
                           (shards_.size() - 1)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    insertLocked(shard, tenant, key, hash, value);
}

std::uint64_t
ShardedStore::evictOneFrom(std::uint32_t tenant)
{
    panicIf(tenant >= tenants_,
            "ShardedStore::evictOneFrom: bad tenant");
    const std::size_t num_shards = shards_.size();
    std::uint32_t cursor = evict_cursor_[tenant];

    for (std::size_t attempt = 0; attempt < num_shards; ++attempt) {
        Shard &shard = shards_[cursor];
        const std::uint32_t next_cursor = static_cast<std::uint32_t>(
            (cursor + 1) & (num_shards - 1));
        std::lock_guard<std::mutex> lock(shard.mutex);
        const std::uint32_t tail = shard.lruTail[tenant];
        if (tail == kNil) {
            cursor = next_cursor;
            continue;
        }

        Slot &slot = shard.slots[tail];
        const auto bytes =
            static_cast<std::uint64_t>(slot.value.size());
        unlink(shard, tail);
        shard.ghost[tenant].push(slot.key, ghost_per_tenant_);
        slot.state = SlotState::Tombstone;
        slot.value.clear();
        slot.value.shrink_to_fit();
        --shard.used;

        shard.bytes[tenant] -= bytes;
        tenant_bytes_[tenant].fetch_sub(bytes,
                                        std::memory_order_relaxed);
        total_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
        objects_.fetch_sub(1, std::memory_order_relaxed);

        // Advance so successive evictions spread over shards instead
        // of draining one shard's list end to end.
        evict_cursor_[tenant] = next_cursor;
        return bytes;
    }
    evict_cursor_[tenant] = cursor;
    return 0;
}

} // namespace prism::serve
