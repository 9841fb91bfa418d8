/**
 * @file
 * Workload serve_write: ServeEngine::run on a churning write mix,
 * repeated.
 *
 * Closed loop: 16 logical streams each issue one batch per round and
 * wait for the round (generate, merge, shard apply, eviction pass,
 * interval close) before issuing the next; the engine runs at nproc
 * threads. Every engine run has a fixed op budget, so its
 * deterministic totals repeat exactly; runs repeat until the time is
 * up. Engine timing is off (its per-request clock reads cost
 * throughput); round ends are timestamped through ServeObserver.
 * Only warm rounds — after the first round that evicted — count.
 *
 * Traced: pairs of one engine run and one replay of its round loop
 * from here, through the same public calls (LoadGen::fill,
 * ShardedStore::shardOf / get / put / evictOneFrom,
 * TenantArbiter::sampleVictimTenant / recompute), with one span per
 * round and children per stage and per shard task.
 */

#include <cmath>
#include <numeric>

#include "common/rng.hh"
#include "exec/thread_pool.hh"
#include "serve/serve_engine.hh"
#include "trace.hh"

namespace perfbench
{

using namespace prism;
using namespace prism::serve;

namespace
{

ServeConfig
serveConfig(const Args &args)
{
    TenantSpec spec;
    spec.keys = 1'000'000;
    spec.zipf = 0.8;
    spec.getFrac = 0.5;
    spec.vmin = 512;
    spec.vmax = 2048;
    ServeConfig c;
    c.threads = args.threads;
    c.streams = 16;
    c.shards = 64;
    c.capacityBytes = 64ull << 20;
    c.policy = 'H';
    c.seed = args.seed;
    // The engine's default batch (2048 per stream, 32768 requests a
    // round). Smaller rounds wake the pool more often per request, and
    // on a shared host each wake-up can wait for a preempted vCPU.
    // 2M ops give each engine run about 60 rounds.
    c.opBudget = 2'000'000;
    c.timing = false;
    if (args.smoke) {
        spec.keys /= 50;
        c.capacityBytes = 1ull << 20;
        c.opBudget = 16 * 256 * 120;
    }
    c.tenants.assign(4, spec);
    return c;
}

/** Per-round observation: round-end time and cumulative counters. */
struct RoundObs
{
    Clock::time_point end;
    std::uint64_t ops = 0;
    std::uint64_t gets = 0;
    std::uint64_t hits = 0;
    std::uint64_t evictions = 0;
};

/** Times round ends and checks the engine's invariants. */
class BenchObserver final : public ServeObserver
{
  public:
    explicit BenchObserver(std::uint64_t capacity) : capacity_(capacity) {}

    void
    onIntervalClosed(const telemetry::IntervalSample &,
                     std::span<const std::uint64_t>,
                     const ServeLiveState &state) override
    {
        double sum = 0.0;
        for (const double e : state.evProbs)
            sum += e;
        ++intervals_checked;
        if (std::fabs(sum - 1.0) > 1e-9)
            ++bad_sums;
    }

    void
    onRoundEnd(const ServeLiveState &state) override
    {
        RoundObs r;
        r.end = Clock::now();
        r.ops = state.ops;
        r.gets = state.gets;
        for (const TenantTotals &t : state.tenants)
            r.hits += t.hits;
        r.evictions = state.evictions;
        rounds.push_back(r);
        if (state.occupancyBytes > capacity_)
            ++over_budget;
    }

    std::vector<RoundObs> rounds;
    std::uint64_t intervals_checked = 0;
    std::uint64_t bad_sums = 0;
    std::uint64_t over_budget = 0;

  private:
    std::uint64_t capacity_;
};

/** Warm-round view of one engine run. */
struct EngineRun
{
    ServeResult result;
    double seconds = 0.0;
    std::vector<double> warmRoundMs;
    /** Ops in warm rounds and their wall time. */
    std::uint64_t warmOps = 0;
    double warmSeconds = 0.0;
    std::uint64_t warmGets = 0;
    std::uint64_t warmHits = 0;
    std::uint64_t coldRounds = 0;
    std::uint64_t rounds = 0;
    std::uint64_t badRounds = 0;
    std::uint64_t intervalsChecked = 0;
    std::uint64_t badSums = 0;
    bool threw = false;
    std::string error;
};

EngineRun
runEngine(ServeConfig config)
{
    BenchObserver obs(config.capacityBytes);
    config.observer = &obs;
    EngineRun run;
    const auto start = Clock::now();
    try {
        run.result = ServeEngine(config).run();
    } catch (const std::exception &e) {
        run.threw = true;
        run.error = e.what();
    }
    run.seconds = secondsSince(start);
    run.rounds = obs.rounds.size();
    run.badRounds = obs.over_budget;
    run.intervalsChecked = obs.intervals_checked;
    run.badSums = obs.bad_sums;

    // Warm rounds: every round after the first one that evicted.
    std::size_t first_evict = obs.rounds.size();
    for (std::size_t r = 0; r < obs.rounds.size(); ++r)
        if (obs.rounds[r].evictions > 0) {
            first_evict = r;
            break;
        }
    run.coldRounds = std::min(first_evict + 1, obs.rounds.size());
    for (std::size_t r = first_evict + 1; r < obs.rounds.size(); ++r) {
        const double ms =
            std::chrono::duration<double, std::milli>(obs.rounds[r].end -
                                                      obs.rounds[r - 1].end)
                .count();
        run.warmRoundMs.push_back(ms);
    }
    if (first_evict + 1 < obs.rounds.size()) {
        const RoundObs &a = obs.rounds[first_evict];
        const RoundObs &b = obs.rounds.back();
        run.warmOps = b.ops - a.ops;
        run.warmSeconds =
            std::chrono::duration<double>(b.end - a.end).count();
        run.warmGets = b.gets - a.gets;
        run.warmHits = b.hits - a.hits;
    }
    return run;
}

// ---------------------------------------------------------------------
// Traced replay of ServeEngine::run's round loop.

/** Deterministic fill pattern, as the engine writes it. */
void
makeValue(std::vector<std::uint8_t> &buf, const Request &req)
{
    buf.assign(req.valueBytes,
               static_cast<std::uint8_t>(Rng::mix64(
                   req.key ^ (0x5E12C0DEull + req.tenant))));
}

struct ServeReplay
{
    std::vector<TenantTotals> tenants;
    std::uint64_t ops = 0, rounds = 0, intervals = 0, evictions = 0,
                  victimless = 0, recomputes = 0;
    double wallSeconds = 0.0;
    std::int64_t startNs = 0, endNs = 0;
    // Busy nanoseconds: stage wall time and summed task time.
    double applyNs = 0, evictNs = 0, recomputeNs = 0, fillTaskNs = 0,
           applyTaskNs = 0;
};

ServeReplay
replayServe(const ServeConfig &cfg, SpanRecorder &rec)
{
    const auto tenants = static_cast<std::uint32_t>(cfg.tenants.size());
    StoreConfig store_config;
    store_config.capacityBytes = cfg.capacityBytes;
    store_config.shards = cfg.shards;
    store_config.tenants = tenants;
    store_config.ghostPerTenant = cfg.ghostPerTenant;
    ShardedStore store(store_config);
    LoadGen gen(cfg.tenants, cfg.streams, cfg.seed);
    std::vector<TenantQos> qos(tenants);
    for (std::uint32_t t = 0; t < tenants; ++t) {
        qos[t].weight = cfg.tenants[t].weight;
        qos[t].floorFrac = cfg.tenants[t].floorFrac;
        qos[t].sloHitRatio = cfg.tenants[t].sloHit;
    }
    TenantArbiter arbiter(tenants,
                          makeTenantPolicy(cfg.policy, std::move(qos)),
                          deriveSeed(cfg.seed, "tenant-arbiter"),
                          TenantArbiter::Params{cfg.intervalMisses});
    ThreadPool pool(cfg.threads);

    std::uint64_t spec_mean_bytes = 0;
    for (const TenantSpec &spec : cfg.tenants)
        spec_mean_bytes += (spec.vmin + spec.vmax) / 2;
    spec_mean_bytes = std::max<std::uint64_t>(1, spec_mean_bytes / tenants);

    const std::uint32_t streams = cfg.streams;
    std::vector<std::vector<Request>> per_stream(streams);
    for (auto &b : per_stream)
        b.resize(cfg.batch);
    std::vector<std::uint32_t> stream_fill(streams, 0);
    std::vector<Request> merged;
    merged.reserve(static_cast<std::size_t>(streams) * cfg.batch);
    std::vector<std::vector<std::uint32_t>> by_shard(store.shardCount());
    std::vector<std::pair<Clock::time_point, Clock::time_point>> task_time(
        store.shardCount());
    std::vector<std::int64_t> fill_ns(streams, 0);

    std::vector<std::uint64_t> base_hits(tenants, 0), base_misses(tenants, 0),
        base_shadow(tenants, 0);
    ServeReplay out;
    out.tenants.resize(tenants);

    const auto intervalMissCount = [&] {
        std::uint64_t total = 0;
        for (std::uint32_t t = 0; t < tenants; ++t)
            total += store.misses(t) - base_misses[t];
        return total;
    };
    const auto closeInterval = [&] {
        ++out.intervals;
        TenantSnapshot snap;
        snap.capacityBytes = cfg.capacityBytes;
        const std::uint64_t objects = store.objectCount();
        snap.avgObjectBytes =
            objects > 0
                ? std::max<std::uint64_t>(1, store.totalBytes() / objects)
                : spec_mean_bytes;
        snap.occupancyBytes.resize(tenants);
        snap.hits.resize(tenants);
        snap.misses.resize(tenants);
        snap.shadowHits.resize(tenants);
        for (std::uint32_t t = 0; t < tenants; ++t) {
            snap.occupancyBytes[t] = store.tenantBytes(t);
            snap.hits[t] = store.hits(t) - base_hits[t];
            snap.misses[t] = store.misses(t) - base_misses[t];
            snap.shadowHits[t] = store.shadowHits(t) - base_shadow[t];
            base_hits[t] += snap.hits[t];
            base_misses[t] += snap.misses[t];
            base_shadow[t] += snap.shadowHits[t];
        }
        arbiter.recompute(snap);
    };
    // The round's stages, as ServeEngine::run performs them.
    const auto generate = [&] {
        for (std::uint32_t s = 0; s < streams; ++s) {
            if (stream_fill[s] == 0)
                continue;
            pool.submit([&, s] {
                const auto t0 = Clock::now();
                gen.fill(s, std::span<Request>(per_stream[s].data(),
                                               stream_fill[s]));
                fill_ns[s] = nanosBetween(t0, Clock::now());
            });
        }
        pool.wait();
    };
    const auto mergeAndPartition = [&] {
        merged.clear();
        for (std::uint32_t i = 0; i < cfg.batch; ++i)
            for (std::uint32_t s = 0; s < streams; ++s)
                if (i < stream_fill[s])
                    merged.push_back(per_stream[s][i]);
        for (auto &list : by_shard)
            list.clear();
        for (std::uint32_t i = 0;
             i < static_cast<std::uint32_t>(merged.size()); ++i)
            by_shard[store.shardOf(merged[i].tenant, merged[i].key)]
                .push_back(i);
    };
    const auto apply = [&] {
        for (std::size_t sh = 0; sh < by_shard.size(); ++sh) {
            if (by_shard[sh].empty())
                continue;
            pool.submit([&, sh] {
                const auto t0 = Clock::now();
                std::vector<std::uint8_t> buf;
                for (const std::uint32_t idx : by_shard[sh]) {
                    const Request &req = merged[idx];
                    if (req.isPut) {
                        makeValue(buf, req);
                        store.put(req.tenant, req.key, buf);
                    } else if (!store.get(req.tenant, req.key).hit) {
                        makeValue(buf, req);
                        store.put(req.tenant, req.key, buf);
                    }
                }
                task_time[sh] = {t0, Clock::now()};
            });
        }
        pool.wait();
    };
    const auto evict = [&] {
        while (store.totalBytes() > cfg.capacityBytes) {
            std::uint32_t victim = arbiter.sampleVictimTenant();
            std::uint64_t freed = store.evictOneFrom(victim);
            if (freed == 0) {
                ++out.victimless;
                std::uint32_t fattest = 0;
                for (std::uint32_t t = 1; t < tenants; ++t)
                    if (store.tenantBytes(t) > store.tenantBytes(fattest))
                        fattest = t;
                victim = fattest;
                freed = store.evictOneFrom(victim);
                if (freed == 0)
                    break;
            }
            ++out.evictions;
            ++out.tenants[victim].evictions;
        }
    };
    // Time @p fn as a span of its own layer; returns (span, busy ns).
    const auto stage = [&rec](const char *name, std::uint64_t id,
                              std::int64_t parent, const auto &fn) {
        const std::int64_t t0 = rec.now();
        fn();
        const std::int64_t t1 = rec.now();
        return std::pair{rec.timed(name, name, id, parent, t0, t1),
                         static_cast<double>(t1 - t0)};
    };

    const auto wall0 = Clock::now();
    out.startNs = rec.now();
    while (out.ops < cfg.opBudget) {
        const std::uint64_t id = out.rounds;
        const std::int64_t open = rec.now();
        const std::int64_t round =
            rec.timed("serve.round", nullptr, id, -1, open, open);

        const std::uint64_t round_ops = std::min<std::uint64_t>(
            cfg.opBudget - out.ops,
            static_cast<std::uint64_t>(streams) * cfg.batch);
        for (std::uint32_t s = 0; s < streams; ++s)
            stream_fill[s] = static_cast<std::uint32_t>(
                round_ops / streams + (s < round_ops % streams ? 1 : 0));

        stage("serve.gen", id, round, generate);
        for (std::int64_t &ns : fill_ns) {
            out.fillTaskNs += static_cast<double>(ns);
            ns = 0;
        }
        stage("serve.merge", id, round, mergeAndPartition);
        if (merged.empty())
            break;

        const auto [apply_span, apply_ns] =
            stage("serve.apply", id, round, apply);
        out.applyNs += apply_ns;
        for (std::size_t sh = 0; sh < by_shard.size(); ++sh) {
            if (by_shard[sh].empty())
                continue;
            const std::int64_t a = rec.at(task_time[sh].first);
            const std::int64_t b = rec.at(task_time[sh].second);
            rec.timed("serve.apply.task", "serve.apply", id, apply_span, a,
                      b);
            out.applyTaskNs += static_cast<double>(b - a);
        }
        out.ops += merged.size();
        ++out.rounds;

        out.evictNs += stage("serve.evict", id, round, evict).second;
        if (intervalMissCount() >= cfg.intervalMisses)
            out.recomputeNs +=
                stage("serve.recompute", id, round, closeInterval).second;
        rec.close(round, rec.now());
    }
    if (intervalMissCount() > 0)
        out.recomputeNs +=
            stage("serve.recompute", out.rounds, -1, closeInterval).second;
    out.endNs = rec.now();
    out.wallSeconds = secondsSince(wall0);
    out.recomputes = arbiter.recomputes();
    for (std::uint32_t t = 0; t < tenants; ++t) {
        out.tenants[t].hits = store.hits(t);
        out.tenants[t].misses = store.misses(t);
        out.tenants[t].shadowHits = store.shadowHits(t);
        out.tenants[t].occupancyBytes = store.tenantBytes(t);
    }
    return out;
}

/** "" when the replay reproduces the engine's totals. */
std::string
compareServe(const ServeReplay &r, const ServeResult &e)
{
    if (r.ops != e.ops)
        return "ops";
    if (r.rounds != e.rounds)
        return "rounds";
    if (r.intervals != e.intervals)
        return "intervals";
    if (r.evictions != e.evictions)
        return "evictions";
    if (r.victimless != e.victimlessEvictions)
        return "victimless evictions";
    for (std::size_t t = 0; t < e.tenants.size(); ++t) {
        const std::string at = " of tenant " + std::to_string(t);
        if (r.tenants[t].hits != e.tenants[t].hits)
            return "hits" + at;
        if (r.tenants[t].misses != e.tenants[t].misses)
            return "misses" + at;
        if (r.tenants[t].evictions != e.tenants[t].evictions)
            return "evictions" + at;
        if (r.tenants[t].occupancyBytes != e.tenants[t].occupancyBytes)
            return "occupancy" + at;
    }
    return "";
}

} // namespace

void
runServe(const Args &args, Report &report)
{
    const ServeConfig config = serveConfig(args);
    report.note("op_budget", config.opBudget);
    report.note("batch", config.batch);
    report.note("streams", config.streams);

    // Round latencies pooled over every engine run, and each run's
    // throughput, median and p90.
    std::vector<double> round_ms, run_ops_per_s, run_p50_ms, run_p90_ms;
    std::uint64_t warm_rounds = 0, cold_rounds = 0, intervals = 0,
                  bad_sums = 0, over_budget = 0;
    double hit_ratio = -1.0;
    bool repeatable = true;
    std::string error;
    const auto account = [&](const EngineRun &run) {
        report.attempted += std::max<std::uint64_t>(run.rounds, 1);
        report.failed += run.badRounds + (run.threw ? 1 : 0);
        over_budget += run.badRounds;
        if (run.threw && error.empty())
            error = run.error;
        intervals += run.intervalsChecked;
        bad_sums += run.badSums;
        warm_rounds += run.warmRoundMs.size();
        cold_rounds += run.coldRounds;
        round_ms.insert(round_ms.end(), run.warmRoundMs.begin(),
                        run.warmRoundMs.end());
        if (!run.warmRoundMs.empty()) {
            run_ops_per_s.push_back(static_cast<double>(run.warmOps) /
                                    run.warmSeconds);
            run_p50_ms.push_back(median(run.warmRoundMs));
            run_p90_ms.push_back(quantile(run.warmRoundMs, 0.90));
        }
        const double hr = run.warmGets ? static_cast<double>(run.warmHits) /
                                             static_cast<double>(run.warmGets)
                                       : 0.0;
        if (hit_ratio < 0)
            hit_ratio = hr;
        else if (hr != hit_ratio)
            repeatable = false;
    };

    // The layers ServeEngine::run builds before its first round.
    SetupTimer setup;
    const auto buildLayers = [&config] {
        StoreConfig sc;
        sc.capacityBytes = config.capacityBytes;
        sc.shards = config.shards;
        sc.tenants = static_cast<std::uint32_t>(config.tenants.size());
        sc.ghostPerTenant = config.ghostPerTenant;
        ShardedStore store(sc);
        LoadGen gen(config.tenants, config.streams, config.seed);
        TenantArbiter arbiter(
            sc.tenants,
            makeTenantPolicy(config.policy,
                             std::vector<TenantQos>(sc.tenants)),
            deriveSeed(config.seed, "tenant-arbiter"),
            TenantArbiter::Params{config.intervalMisses});
        ThreadPool pool(config.threads);
    };

    const auto t_start = Clock::now();
    std::vector<double> engine_s;
    SpanRecorder rec;
    std::vector<ServeReplay> replays;
    std::string mismatch;
    const unsigned min_runs = args.trace ? 1 : 2;
    for (;;) {
        double unit = engine_s.empty() ? 0.0 : median(engine_s);
        if (!replays.empty())
            unit += replays.back().wallSeconds;
        if (engine_s.size() >= min_runs &&
            secondsSince(t_start) + unit > args.seconds)
            break;
        if (!args.trace)
            setup.sample(3, 10, buildLayers);
        EngineRun run = runEngine(config);
        engine_s.push_back(run.seconds);
        if (args.trace) {
            replays.push_back(replayServe(config, rec));
            const std::string m = compareServe(replays.back(), run.result);
            if (!m.empty() && mismatch.empty())
                mismatch = m;
        }
        account(run);
    }

    report.check("serve.no_errors", error.empty(),
                 error.empty() ? "no engine run threw" : error);
    report.check("serve.occupancy_within_budget", over_budget == 0,
                 std::to_string(over_budget) +
                     " rounds over the byte budget after their eviction "
                     "pass");
    report.check("serve.eviction_distribution_sums_to_one",
                 bad_sums == 0 && intervals > 0,
                 std::to_string(intervals) +
                     " interval closes checked, sum(E) = 1 +- 1e-9");
    report.check("serve.repeatable", repeatable,
                 "every engine run reproduces the warm hit ratio");
    report.check("serve.has_warm_rounds", warm_rounds > 0,
                 std::to_string(warm_rounds) + " warm rounds");
    report.note("engine_runs", engine_s.size());
    report.note("warm_rounds", warm_rounds);
    report.note("cold_rounds", cold_rounds);
    report.note("hit_ratio", hit_ratio);

    if (!args.trace) {
        // p99 has too few rounds beyond it here, and host stalls set
        // it; it is printed with the round count.
        report.note("latency_p99_ms", quantile(round_ms, 0.99));
        report.note("latency_samples", round_ms.size());
        // Medians over engine runs of each run's figure. Every engine
        // run repeats the same deterministic work, so a stall the
        // program causes recurs in each of them; a host stall in one
        // engine run moves only that run's figure.
        report.metric("throughput", median(run_ops_per_s), "1/s");
        report.metric("latency_p50_ms", median(run_p50_ms), "ms");
        report.metric("latency_p90_ms", median(run_p90_ms), "ms");
        report.metric("quality", 1.0 - hit_ratio, "ratio");
        report.metric("setup_s", setup.median(), "s");
        report.note("setup_samples", setup.samples());
        return;
    }

    report.check("serve.replay_matches", mismatch.empty(),
                 mismatch.empty()
                     ? "replayed round loop reproduces ServeEngine::run's "
                       "hits, misses, evictions and intervals"
                     : "mismatch: " + mismatch);
    ServeReplay sum;
    double wall_ns = 0.0, outside_ns = 0.0, replay_s = 0.0;
    for (const ServeReplay &r : replays) {
        sum.ops += r.ops;
        sum.evictions += r.evictions;
        sum.victimless += r.victimless;
        sum.recomputes += r.recomputes;
        sum.applyNs += r.applyNs;
        sum.evictNs += r.evictNs;
        sum.recomputeNs += r.recomputeNs;
        sum.fillTaskNs += r.fillTaskNs;
        sum.applyTaskNs += r.applyTaskNs;
        wall_ns += static_cast<double>(r.endNs - r.startNs);
        outside_ns += rec.unattributedNs(r.startNs, r.endNs);
        replay_s += r.wallSeconds;
    }
    const auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const std::map<std::string, double> self = rec.selfNsByLayer();
    const auto share = [&](const char *layer) {
        const auto it = self.find(layer);
        return it == self.end() ? 0.0
                                : frac(std::max(0.0, it->second), wall_ns);
    };
    report.metric("serve.gen.share", share("serve.gen"), "fraction");
    report.metric("serve.gen_ns_per_req",
                  frac(sum.fillTaskNs, static_cast<double>(sum.ops)), "ns");
    report.metric("serve.merge.share", share("serve.merge"), "fraction");
    report.metric("serve.apply.share", share("serve.apply"), "fraction");
    report.metric("serve.apply_ns_per_op",
                  frac(sum.applyTaskNs, static_cast<double>(sum.ops)), "ns");
    report.metric("serve.apply.parallel_eff",
                  frac(sum.applyTaskNs, sum.applyNs * config.threads),
                  "fraction");
    report.metric("serve.evict.share", share("serve.evict"), "fraction");
    report.metric("serve.evict_ns",
                  frac(sum.evictNs, static_cast<double>(sum.evictions)),
                  "ns");
    report.metric("serve.evictions_per_op",
                  frac(static_cast<double>(sum.evictions),
                       static_cast<double>(sum.ops)),
                  "fraction");
    report.metric("serve.victimless_frac",
                  frac(static_cast<double>(sum.victimless),
                       static_cast<double>(sum.evictions)),
                  "fraction");
    report.metric("serve.recompute_us",
                  frac(sum.recomputeNs, static_cast<double>(sum.recomputes)) /
                      1e3,
                  "us");
    report.metric("serve.recompute.share", share("serve.recompute"),
                  "fraction");
    // Every engine run in a traced run is paired with one replay.
    report.metric("telemetry.trace_overhead_frac",
                  frac(replay_s, std::accumulate(engine_s.begin(),
                                                 engine_s.end(), 0.0)) -
                      1.0,
                  "fraction");
    report.metric("telemetry.unattributed_frac", frac(outside_ns, wall_ns),
                  "fraction");
    report.check("trace.coverage", frac(outside_ns, wall_ns) <= 0.10,
                 std::to_string(frac(outside_ns, wall_ns) * 100.0) +
                     "% of traced wall time outside named layer spans "
                     "(limit 10%)");
    if (!args.spansOut.empty() &&
        !rec.write(args.spansOut, "serve_write"))
        report.check("trace.spans_written", false, args.spansOut);
}

} // namespace perfbench
