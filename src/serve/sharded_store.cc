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

/**
 * Size class of a buffer for @p bytes >= 1: 16-byte steps up to
 * 128 B (classes 1-8), then 8 classes per power of two, so a buffer
 * reserved at its class capacity is at most 1/8 slack.
 */
std::size_t
valueClass(std::size_t bytes)
{
    if (bytes <= 128)
        return (bytes + 15) / 16;
    // bytes is in (2^octave, 2^(octave + 1)], cut into 8 steps.
    const auto octave =
        static_cast<std::size_t>(std::bit_width(bytes - 1)) - 1;
    const std::size_t base = std::size_t{1} << octave;
    return 8 * (octave - 6) + ((bytes - 1 - base) >> (octave - 3)) + 1;
}

/** The largest value class @p cls holds. */
std::size_t
classCapacity(std::size_t cls)
{
    if (cls <= 8)
        return 16 * cls;
    const std::size_t octave = (cls - 1) / 8 + 6;
    const std::size_t step = (cls - 1) % 8 + 1;
    return (std::size_t{1} << octave) + (step << (octave - 3));
}

} // namespace

std::uint32_t
ShardedStore::GhostList::find(std::uint64_t key) const
{
    if (table_.empty())
        return kNil;
    const std::size_t mask = table_.size() - 1;
    for (std::size_t i = home(key);; i = (i + 1) & mask) {
        const Member &m = table_[i];
        if (m.slot == kNil)
            return kNil;
        if (m.key == key)
            return static_cast<std::uint32_t>(i);
    }
}

void
ShardedStore::GhostList::removeAt(std::size_t idx)
{
    // Backward-shift deletion: walk the probe run after the hole and
    // move into it each member whose probe path from its home passes
    // the hole, so no run ever has a gap and no tombstones are
    // needed.
    const std::size_t mask = table_.size() - 1;
    std::size_t hole = idx;
    for (std::size_t j = (hole + 1) & mask; table_[j].slot != kNil;
         j = (j + 1) & mask) {
        const std::size_t from_home = (j - home(table_[j].key)) & mask;
        if (from_home >= ((j - hole) & mask)) {
            table_[hole] = table_[j];
            hole = j;
        }
    }
    table_[hole].slot = kNil;
}

void
ShardedStore::GhostList::erase(std::uint64_t key)
{
    const std::uint32_t idx = find(key);
    if (idx != kNil)
        removeAt(idx);
}

void
ShardedStore::GhostList::push(std::uint64_t key,
                              std::uint32_t capacity)
{
    if (capacity == 0 || contains(key))
        return;
    if (table_.empty()) {
        ring_.reserve(capacity);
        table_.resize(ceilPow2(std::uint64_t{capacity} * 2));
    }
    std::uint32_t slot = head_;
    if (ring_.size() < capacity) {
        slot = static_cast<std::uint32_t>(ring_.size());
        ring_.push_back(key);
    } else {
        const std::uint32_t aged = find(ring_[slot]);
        if (aged != kNil && table_[aged].slot == slot)
            removeAt(aged);
        ring_[slot] = key;
        head_ = (head_ + 1) % capacity;
    }
    const std::size_t mask = table_.size() - 1;
    std::size_t i = home(key);
    while (table_[i].slot != kNil)
        i = (i + 1) & mask;
    table_[i] = Member{key, slot};
}

ShardedStore::ShardedStore(const StoreConfig &config)
    : capacity_bytes_(config.capacityBytes),
      tenants_(config.tenants),
      ghost_per_tenant_(config.ghostPerTenant)
{
    fatalIf(tenants_ == 0, "ShardedStore: no tenants");
    fatalIf(config.shards > (1u << 31),
            "ShardedStore: more than 2^31 shards");
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
        shard.counters = std::vector<TenantCounters>(tenants_);
        shard.ghost.resize(tenants_);
    }
    evict_cursor_.assign(tenants_, 0);
    plan_.resize(static_cast<std::size_t>(num_shards) * tenants_);
}

std::uint64_t
ShardedStore::sumShards(Counter Shard::*field) const
{
    std::uint64_t sum = 0;
    for (const Shard &shard : shards_)
        sum += (shard.*field).load(std::memory_order_relaxed);
    return sum;
}

std::uint64_t
ShardedStore::sumTenant(std::uint32_t tenant,
                        Counter TenantCounters::*field) const
{
    std::uint64_t sum = 0;
    for (const Shard &shard : shards_)
        sum += (shard.counters[tenant].*field).load(
            std::memory_order_relaxed);
    return sum;
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
    const std::size_t used =
        shard.objects.load(std::memory_order_relaxed);
    const std::size_t new_size =
        used * 2 >= old_size ? old_size * 2 : old_size;

    // Per-tenant MRU->LRU orders survive the move by reinsertion in
    // order: walk each old chain head to tail, move the slot into
    // the new table, and append to the rebuilt chain's tail.
    std::vector<Slot> old_slots(new_size);
    old_slots.swap(shard.slots);
    shard.filled = used;

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
    shard.tailsValid = false;
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
            storeValue(shard, slot.value, value);
            add(shard.counters[tenant].bytes, new_bytes - old_bytes);
            add(shard.bytes, new_bytes - old_bytes);
            unlink(shard, static_cast<std::uint32_t>(i));
            linkFront(shard, static_cast<std::uint32_t>(i));
            return;
        }
    }

    Slot &slot = shard.slots[target];
    slot.key = key;
    slot.tenant = tenant;
    slot.state = SlotState::Full;
    storeValue(shard, slot.value, value);
    linkFront(shard, static_cast<std::uint32_t>(target));

    const auto bytes = static_cast<std::uint64_t>(value.size());
    add(shard.counters[tenant].bytes, bytes);
    add(shard.bytes, bytes);
    add(shard.objects, 1);

    // A key coming back to life stops being a ghost.
    shard.ghost[tenant].erase(key);
}

void
ShardedStore::storeValue(Shard &shard, Buffer &dst,
                         std::span<const std::uint8_t> value)
{
    // A buffer that already fits is kept. A replaced buffer is
    // freed: only evicted buffers become spares.
    if (value.size() > dst.capacity()) {
        const std::size_t cls = valueClass(value.size());
        if (cls < shard.spares.size() && !shard.spares[cls].empty()) {
            dst = std::move(shard.spares[cls].back());
            shard.spares[cls].pop_back();
        } else {
            dst.clear();
            dst.reserve(classCapacity(cls));
        }
    }
    dst.assign(value.begin(), value.end());
}

ShardedStore::GetResult
ShardedStore::getLocked(Shard &shard, std::uint32_t tenant,
                        std::uint64_t key, std::uint64_t hash,
                        std::vector<std::uint8_t> *value_out)
{
    shard.tailsValid = false;
    GetResult result;
    TenantCounters &counters = shard.counters[tenant];
    const std::uint32_t idx = findSlot(shard, tenant, key, hash);
    if (idx != kNil) {
        result.hit = true;
        unlink(shard, idx);
        linkFront(shard, idx);
        if (value_out)
            *value_out = shard.slots[idx].value;
        add(counters.hits, 1);
    } else {
        result.shadowHit = shard.ghost[tenant].contains(key);
        add(counters.misses, 1);
        if (result.shadowHit)
            add(counters.shadowHits, 1);
    }
    return result;
}

ShardedStore::GetResult
ShardedStore::get(std::uint32_t tenant, std::uint64_t key,
                  std::vector<std::uint8_t> *value_out)
{
    panicIf(tenant >= tenants_, "ShardedStore::get: bad tenant");
    const std::uint64_t hash = slotHash(tenant, key);
    Shard &shard = shards_[shardIndex(hash)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    return getLocked(shard, tenant, key, hash, value_out);
}

void
ShardedStore::put(std::uint32_t tenant, std::uint64_t key,
                  std::span<const std::uint8_t> value)
{
    panicIf(tenant >= tenants_, "ShardedStore::put: bad tenant");
    const std::uint64_t hash = slotHash(tenant, key);
    Shard &shard = shards_[shardIndex(hash)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    insertLocked(shard, tenant, key, hash, value);
}

ShardedStore::ShardLock::ShardLock(ShardedStore &store,
                                   std::uint32_t shard)
    : store_(store), shard_(store.shards_[shard]), index_(shard),
      hold_(shard_.mutex)
{
    shard_.tailsValid = false;
}

ShardedStore::ShardLock
ShardedStore::lockShard(std::uint32_t shard)
{
    panicIf(shard >= shards_.size(),
            "ShardedStore::lockShard: bad shard");
    return ShardLock(*this, shard);
}

std::uint64_t
ShardedStore::ShardLock::hashHere(std::uint32_t tenant,
                                  std::uint64_t key) const
{
    panicIf(tenant >= store_.tenants_,
            "ShardedStore::ShardLock: bad tenant");
    const std::uint64_t hash = slotHash(tenant, key);
    panicIf(store_.shardIndex(hash) != index_,
            "ShardedStore::ShardLock: key routes to another shard");
    return hash;
}

ShardedStore::GetResult
ShardedStore::ShardLock::get(std::uint32_t tenant, std::uint64_t key,
                             std::vector<std::uint8_t> *value_out)
{
    return store_.getLocked(shard_, tenant, key, hashHere(tenant, key),
                            value_out);
}

void
ShardedStore::ShardLock::put(std::uint32_t tenant, std::uint64_t key,
                             std::span<const std::uint8_t> value)
{
    store_.insertLocked(shard_, tenant, key, hashHere(tenant, key),
                        value);
}

void
ShardedStore::ShardLock::recordTails()
{
    for (std::uint32_t t = 0; t < shard_.tails.size(); ++t) {
        TailRecord &record = shard_.tails[t];
        record.bytes.clear();
        std::uint32_t idx = shard_.lruTail[t];
        for (std::uint32_t i = 0; i < record.depth && idx != kNil; ++i) {
            const Slot &slot = shard_.slots[idx];
            record.bytes.push_back(slot.value.size());
            idx = slot.prev;
        }
        record.resume = idx;
    }
    shard_.tailsValid = !shard_.tails.empty();
}

ShardedStore::PlannedVictim
ShardedStore::planVictim(std::uint32_t tenant)
{
    panicIf(tenant >= tenants_,
            "ShardedStore::planEviction: bad tenant");
    const std::size_t num_shards = shards_.size();
    std::uint32_t cursor = evict_cursor_[tenant];

    for (std::size_t attempt = 0; attempt < num_shards; ++attempt) {
        const std::uint32_t shard_idx = cursor;
        cursor = static_cast<std::uint32_t>((cursor + 1) &
                                            (num_shards - 1));
        const Shard &shard = shards_[shard_idx];
        PlanCell &cell = plan_[planIndex(shard_idx, tenant)];
        // The planned objects are the tail of the tenant's LRU list,
        // so the next victim is the one just before them: recorded,
        // or found from where the record (or the list) ends.
        const TailRecord *record =
            shard.tailsValid ? &shard.tails[tenant] : nullptr;
        const std::size_t recorded = record ? record->bytes.size() : 0;
        std::uint64_t bytes = 0;
        if (cell.count < recorded) {
            bytes = record->bytes[cell.count];
        } else {
            const std::uint32_t victim =
                cell.count > recorded ? cell.next
                : record              ? record->resume
                                      : shard.lruTail[tenant];
            if (victim == kNil)
                continue;
            const Slot &slot = shard.slots[victim];
            bytes = slot.value.size();
            cell.next = slot.prev;
        }
        ++cell.count;
        cell.bytes += bytes;
        // Advance so successive evictions spread over shards instead
        // of draining one shard's list end to end.
        evict_cursor_[tenant] = cursor;
        return {shard_idx, bytes};
    }
    return {};
}

std::uint64_t
ShardedStore::spareBytes() const
{
    std::uint64_t bytes = 0;
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        for (const std::vector<Buffer> &spares : shard.spares)
            for (const Buffer &buffer : spares)
                bytes += buffer.capacity();
    }
    return bytes;
}

std::uint64_t
ShardedStore::planEviction(std::uint32_t tenant)
{
    return planVictim(tenant).bytes;
}

std::uint32_t
ShardedStore::plannedEvictions(std::uint32_t shard) const
{
    panicIf(shard >= shards_.size(),
            "ShardedStore::plannedEvictions: bad shard");
    std::uint32_t count = 0;
    for (std::uint32_t t = 0; t < tenants_; ++t)
        count += plan_[planIndex(shard, t)].count;
    return count;
}

void
ShardedStore::evictPlanned(std::uint32_t shard_idx)
{
    panicIf(shard_idx >= shards_.size(),
            "ShardedStore::evictPlanned: bad shard");
    Shard &shard = shards_[shard_idx];
    std::lock_guard<std::mutex> lock(shard.mutex);
    // Free the spares of the shard's previous pass that no put took,
    // so the pool never outgrows one pass of evictions.
    for (std::vector<Buffer> &spares : shard.spares)
        spares.clear();
    shard.tailsValid = false;
    if (shard.tails.empty())
        shard.tails.resize(tenants_);
    std::uint64_t total_freed = 0;
    std::uint64_t evicted = 0;
    for (std::uint32_t t = 0; t < tenants_; ++t) {
        PlanCell &cell = plan_[planIndex(shard_idx, t)];
        shard.tails[t].depth = cell.count;
        if (cell.count == 0)
            continue;
        std::uint64_t freed = 0;
        for (std::uint32_t i = 0; i < cell.count; ++i) {
            const std::uint32_t tail = shard.lruTail[t];
            panicIf(tail == kNil, "ShardedStore::evictPlanned: "
                                  "planned object is gone");
            Slot &slot = shard.slots[tail];
            freed += slot.value.size();
            unlink(shard, tail);
            shard.ghost[t].push(slot.key, ghost_per_tenant_);
            slot.state = SlotState::Tombstone;
            if (slot.value.capacity() != 0) {
                const std::size_t cls = valueClass(slot.value.capacity());
                if (cls >= shard.spares.size())
                    shard.spares.resize(cls + 1);
                shard.spares[cls].push_back(std::move(slot.value));
            }
        }
        panicIf(freed != cell.bytes,
                "ShardedStore::evictPlanned: shard changed between "
                "plan and execute");
        add(shard.counters[t].bytes, 0 - freed);
        total_freed += freed;
        evicted += cell.count;
        cell = PlanCell{};
    }
    add(shard.bytes, 0 - total_freed);
    add(shard.objects, 0 - evicted);
}

std::uint64_t
ShardedStore::evictOneFrom(std::uint32_t tenant)
{
    const PlannedVictim planned = planVictim(tenant);
    if (planned.shard != kNil)
        evictPlanned(planned.shard);
    return planned.bytes;
}

} // namespace prism::serve
