#include "serve/serve_engine.hh"

#include <algorithm>
#include <chrono>

#include "common/cancel.hh"
#include "common/prism_assert.hh"
#include "exec/thread_pool.hh"

namespace prism::serve
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Deterministic fill pattern so reads can verify round trips. */
void
makeValue(std::vector<std::uint8_t> &buf, const Request &req)
{
    buf.assign(req.valueBytes,
               static_cast<std::uint8_t>(Rng::mix64(
                   req.key ^ (0x5E12C0DEull + req.tenant))));
}

} // namespace

const char *
policyName(char kind)
{
    switch (kind) {
      case 'H':
        return "HitMax";
      case 'F':
        return "Fair";
      case 'Q':
        return "QoS";
      default:
        return "?";
    }
}

ServeEngine::ServeEngine(const ServeConfig &config) : config_(config)
{
    fatalIf(config_.tenants.empty(), "ServeEngine: no tenants");
    fatalIf(config_.streams == 0, "ServeEngine: no streams");
    fatalIf(config_.batch == 0, "ServeEngine: empty batch");
    fatalIf(config_.capacityBytes == 0, "ServeEngine: no capacity");
    fatalIf(!makeTenantPolicy(config_.policy, {}),
            "ServeEngine: unknown policy (use H, F or Q)");
    fatalIf(config_.opBudget == 0 &&
                !deadlineAfter(Clock::now(), config_.seconds),
            "ServeEngine: seconds must be finite and within the "
            "clock's range");
}

ServeResult
ServeEngine::run()
{
    const auto tenants =
        static_cast<std::uint32_t>(config_.tenants.size());

    StoreConfig store_config;
    store_config.capacityBytes = config_.capacityBytes;
    store_config.shards = config_.shards;
    store_config.tenants = tenants;
    store_config.ghostPerTenant = config_.ghostPerTenant;
    ShardedStore store(store_config);

    LoadGen gen(config_.tenants, config_.streams, config_.seed);

    std::vector<TenantQos> qos(tenants);
    for (std::uint32_t t = 0; t < tenants; ++t) {
        qos[t].weight = config_.tenants[t].weight;
        qos[t].floorFrac = config_.tenants[t].floorFrac;
        qos[t].sloHitRatio = config_.tenants[t].sloHit;
    }
    TenantArbiter arbiter(
        tenants, makeTenantPolicy(config_.policy, std::move(qos)),
        deriveSeed(config_.seed, "tenant-arbiter"),
        TenantArbiter::Params{config_.intervalMisses});

    ThreadPool pool(config_.threads);

    ServeResult result;
    result.tenants.resize(tenants);
    result.metrics = std::make_shared<telemetry::MetricsRegistry>();

    // Per-tenant latency histograms: ~0.5us to ~1s in nanoseconds.
    std::vector<telemetry::Histogram *> latency(tenants, nullptr);
    if (config_.timing) {
        const std::vector<double> bounds =
            telemetry::Histogram::exponentialBounds(512.0, 2.0, 22);
        for (std::uint32_t t = 0; t < tenants; ++t)
            latency[t] = &result.metrics->histogram(
                "serve.latency_ns.t" + std::to_string(t), bounds);
    }

    // Mean spec size stands in for the measured mean until the
    // store holds objects (first interval of a cold run).
    std::uint64_t spec_mean_bytes = 0;
    for (const TenantSpec &spec : config_.tenants)
        spec_mean_bytes += (spec.vmin + spec.vmax) / 2;
    spec_mean_bytes =
        std::max<std::uint64_t>(1, spec_mean_bytes / tenants);

    // Round-pipeline scratch, reused every round.
    const std::uint32_t streams = config_.streams;
    std::vector<std::vector<Request>> per_stream(streams);
    for (auto &batch : per_stream)
        batch.resize(config_.batch);
    std::vector<std::uint32_t> stream_fill(streams, 0);
    std::vector<Request> merged;
    merged.reserve(static_cast<std::size_t>(streams) *
                   config_.batch);
    std::vector<std::vector<std::uint32_t>> by_shard(
        store.shardCount());
    std::vector<std::uint64_t> unplanned_bytes(tenants, 0);

    // Interval state: counter snapshots taken at interval open.
    std::vector<std::uint64_t> base_hits(tenants, 0);
    std::vector<std::uint64_t> base_misses(tenants, 0);
    std::vector<std::uint64_t> base_shadow(tenants, 0);
    std::vector<std::uint64_t> interval_evictions(tenants, 0);

    const auto intervalMissCount = [&] {
        std::uint64_t total = 0;
        for (std::uint32_t t = 0; t < tenants; ++t)
            total += store.misses(t) - base_misses[t];
        return total;
    };

    // The run's history keeps the last recorderCapacity intervals (at
    // least one); older ones count as dropped samples.
    const std::uint64_t history_rows =
        std::max<std::size_t>(1, config_.recorderCapacity);

    // Bring the store and controller readings in `result` up to
    // date. Called from the sequential sections only, so observers
    // and the caller see thread-count-independent state.
    const PrismController &ctl = arbiter.controller();
    const auto refresh = [&] {
        result.recomputes = ctl.recomputes();
        result.eq1Fallbacks = ctl.eq1Fallbacks();
        result.clampedEq1Inputs = ctl.clampedInputs();
        result.occupancyBytes = store.totalBytes();
        result.objects = store.objectCount();
        result.rehashes = store.rehashes();
        result.droppedSamples = result.intervals > history_rows
                                    ? result.intervals - history_rows
                                    : 0;
        for (std::uint32_t t = 0; t < tenants; ++t) {
            TenantTotals &tt = result.tenants[t];
            tt.hits = store.hits(t);
            tt.misses = store.misses(t);
            tt.shadowHits = store.shadowHits(t);
            tt.occupancyBytes = store.tenantBytes(t);
        }
        result.targets = ctl.targets();
        result.evProbs = ctl.evictionProbs();
    };

    const auto closeInterval = [&](std::uint64_t misses_in_interval) {
        telemetry::IntervalSample sample;
        sample.interval = ++result.intervals;
        sample.missesInInterval = misses_in_interval;
        sample.occupancy.resize(tenants);
        sample.missFrac.resize(tenants);
        sample.hits.resize(tenants);
        sample.misses.resize(tenants);
        // The distribution *in effect during* the interval — not the
        // one the recompute below produces. This aligns each row
        // with the evictions it actually steered, which is what the
        // victim-match statistics need (docs/SERVING.md).
        sample.target = ctl.targets();
        sample.evProb = ctl.evictionProbs();

        TenantSnapshot snap;
        snap.capacityBytes = config_.capacityBytes;
        const std::uint64_t objects = store.objectCount();
        snap.avgObjectBytes =
            objects > 0 ? std::max<std::uint64_t>(
                              1, store.totalBytes() / objects)
                        : spec_mean_bytes;
        snap.occupancyBytes.resize(tenants);
        snap.hits.resize(tenants);
        snap.misses.resize(tenants);
        snap.shadowHits.resize(tenants);

        for (std::uint32_t t = 0; t < tenants; ++t) {
            const std::uint64_t bytes = store.tenantBytes(t);
            snap.occupancyBytes[t] = bytes;
            snap.hits[t] = store.hits(t) - base_hits[t];
            snap.misses[t] = store.misses(t) - base_misses[t];
            snap.shadowHits[t] =
                store.shadowHits(t) - base_shadow[t];

            sample.occupancy[t] =
                static_cast<double>(bytes) /
                static_cast<double>(config_.capacityBytes);
            sample.missFrac[t] =
                misses_in_interval
                    ? static_cast<double>(snap.misses[t]) /
                          static_cast<double>(misses_in_interval)
                    : 0.0;
            sample.hits[t] = snap.hits[t];
            sample.misses[t] = snap.misses[t];

            base_hits[t] += snap.hits[t];
            base_misses[t] += snap.misses[t];
            base_shadow[t] += snap.shadowHits[t];
        }

        arbiter.recompute(snap);
        sample.evictions = interval_evictions;

        if (config_.observer) {
            refresh();
            config_.observer->onIntervalClosed(
                sample,
                std::span<const std::uint64_t>(interval_evictions),
                result);
        }
        std::fill(interval_evictions.begin(),
                  interval_evictions.end(), 0);
    };

    const bool budgeted = config_.opBudget > 0;
    const auto start = Clock::now();
    // Only a wall-clock run reads it; the constructor vetted its
    // seconds.
    const auto deadline = deadlineAfter(start, config_.seconds)
                              .value_or(Clock::time_point::max());

    for (;;) {
        if (config_.stopFlag &&
            config_.stopFlag->load(std::memory_order_relaxed)) {
            result.stopped = true;
            break;
        }

        // --- round sizing ------------------------------------------
        if (budgeted) {
            const std::uint64_t remaining =
                config_.opBudget - result.ops;
            if (remaining == 0)
                break;
            const std::uint64_t round_ops = std::min<std::uint64_t>(
                remaining,
                static_cast<std::uint64_t>(streams) *
                    config_.batch);
            for (std::uint32_t s = 0; s < streams; ++s)
                stream_fill[s] = static_cast<std::uint32_t>(
                    round_ops / streams +
                    (s < round_ops % streams ? 1 : 0));
        } else {
            if (Clock::now() >= deadline)
                break;
            std::fill(stream_fill.begin(), stream_fill.end(),
                      config_.batch);
        }

        // --- (1) parallel per-stream batch fill --------------------
        for (std::uint32_t s = 0; s < streams; ++s) {
            if (stream_fill[s] == 0)
                continue;
            pool.submit([&gen, &per_stream, &stream_fill, s] {
                gen.fill(s, std::span<Request>(
                                per_stream[s].data(),
                                stream_fill[s]));
            });
        }
        pool.wait();

        // --- (2) deterministic round-robin merge -------------------
        merged.clear();
        for (std::uint32_t i = 0; i < config_.batch; ++i)
            for (std::uint32_t s = 0; s < streams; ++s)
                if (i < stream_fill[s])
                    merged.push_back(per_stream[s][i]);
        if (merged.empty())
            break;

        // --- (3) partition by shard, parallel apply ----------------
        for (auto &list : by_shard)
            list.clear();
        for (std::uint32_t i = 0;
             i < static_cast<std::uint32_t>(merged.size()); ++i) {
            const Request &req = merged[i];
            by_shard[store.shardOf(req.tenant, req.key)].push_back(
                i);
            if (req.isPut)
                ++result.puts;
            else
                ++result.gets;
        }

        for (std::uint32_t sh = 0; sh < store.shardCount(); ++sh) {
            const std::vector<std::uint32_t> &list = by_shard[sh];
            if (list.empty())
                continue;
            pool.submit([&store, &merged, &list, &latency, sh,
                         timing = config_.timing] {
                std::vector<std::uint8_t> buf;
                // One lock hold for the whole slice: locking per op
                // costs each op a lock and an unlock, locked
                // instructions that wait for its value copy's stores.
                ShardedStore::ShardLock shard = store.lockShard(sh);
                for (const std::uint32_t idx : list) {
                    const Request &req = merged[idx];
                    const auto t0 =
                        timing ? Clock::now() : Clock::time_point();
                    if (req.isPut) {
                        makeValue(buf, req);
                        shard.put(req.tenant, req.key, buf);
                    } else if (!shard.get(req.tenant, req.key)
                                    .hit) {
                        // Read-through fill: a get miss fetches the
                        // object from the (modelled) backend.
                        makeValue(buf, req);
                        shard.put(req.tenant, req.key, buf);
                    }
                    if (timing)
                        latency[req.tenant]->observe(
                            static_cast<double>(
                                std::chrono::nanoseconds(
                                    Clock::now() - t0)
                                    .count()));
                }
            });
        }
        pool.wait();
        result.ops += merged.size();
        ++result.rounds;

        // --- (4) sequential victim plan ----------------------------
        // Draw victims until occupancy net of the planned evictions
        // fits the budget. Only the draws depend on global order.
        std::uint64_t occupancy = store.totalBytes();
        for (std::uint32_t t = 0; t < tenants; ++t)
            unplanned_bytes[t] = store.tenantBytes(t);
        while (occupancy > config_.capacityBytes) {
            std::uint32_t victim = arbiter.sampleVictimTenant();
            std::uint64_t freed = store.planEviction(victim);
            if (freed == 0) {
                // Sampled tenant holds nothing unplanned: charge
                // the fattest tenant instead (and count the
                // miss-step).
                ++result.victimlessEvictions;
                std::uint32_t fattest = 0;
                for (std::uint32_t t = 1; t < tenants; ++t)
                    if (unplanned_bytes[t] > unplanned_bytes[fattest])
                        fattest = t;
                victim = fattest;
                freed = store.planEviction(victim);
                if (freed == 0)
                    break; // nothing anywhere to evict
            }
            occupancy -= freed;
            unplanned_bytes[victim] -= freed;
            ++result.evictions;
            ++interval_evictions[victim];
            ++result.tenants[victim].evictions;
        }

        // --- (4b) parallel per-shard eviction ----------------------
        for (std::uint32_t sh = 0; sh < store.shardCount(); ++sh)
            if (store.plannedEvictions(sh) != 0)
                pool.submit([&store, sh] { store.evictPlanned(sh); });
        pool.wait();

        // --- (5) control loop at the interval boundary -------------
        const std::uint64_t interval_misses = intervalMissCount();
        if (interval_misses >= config_.intervalMisses)
            closeInterval(interval_misses);

        if (config_.observer) {
            refresh();
            config_.observer->onRoundEnd(result);
        }
    }

    // The final partial interval still carries signal — record it
    // (the simulator does the same for its last interval).
    const std::uint64_t tail_misses = intervalMissCount();
    if (tail_misses > 0)
        closeInterval(tail_misses);

    if (config_.timing)
        result.wallSeconds =
            std::chrono::duration<double>(Clock::now() - start)
                .count();

    refresh();
    if (config_.observer)
        config_.observer->onRunEnd(result);
    return result;
}

} // namespace prism::serve
