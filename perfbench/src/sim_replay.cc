#include "sim_replay.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "cache/l1_cache.hh"
#include "cache/shared_cache.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "policies/pipp.hh"
#include "policies/way_partition.hh"
#include "prism/alloc_hitmax.hh"
#include "prism/prism_scheme.hh"
#include "sim/memory_system.hh"
#include "workload/profiles.hh"

namespace perfbench
{

using namespace prism;

std::unique_ptr<PartitionScheme>
makeScheme(SchemeKind kind, const MachineConfig &config)
{
    // Mirrors Runner::makeScheme for the schemes the benchmark runs.
    const std::uint64_t seed = config.seed ^ 0xDEC0DE5Cu;
    switch (kind) {
      case SchemeKind::Baseline:
        return nullptr;
      case SchemeKind::UCP:
        return std::make_unique<UcpScheme>(config.numCores,
                                           config.llcWays);
      case SchemeKind::PIPP:
        return std::make_unique<PippScheme>(config.numCores,
                                            config.llcWays, seed);
      case SchemeKind::PrismH:
        return std::make_unique<PrismScheme>(
            config.numCores, std::make_unique<HitMaxPolicy>(), seed,
            PrismParams{0});
      default:
        fatal(std::string("perfbench: no replay for scheme ") +
              schemeName(kind));
    }
}

double
calibrateTimerNs()
{
    std::vector<double> trials;
    for (int t = 0; t < 11; ++t) {
        constexpr int kReads = 2000;
        const auto t0 = Clock::now();
        Clock::time_point last = t0;
        for (int i = 0; i < kReads; ++i)
            last = Clock::now();
        trials.push_back(static_cast<double>(nanosBetween(t0, last)) /
                         kReads);
    }
    return median(trials);
}

namespace
{

/** Busy-time accumulator of one timed region over one interval. */
struct Acc
{
    std::int64_t ns = 0;        ///< raw clock time of the timed calls
    std::int64_t excludeNs = 0; ///< recompute time inside timed calls
    std::uint64_t timed = 0;    ///< calls timed
    std::uint64_t reads = 0;    ///< measurements (pairs of clock reads)
    std::uint64_t calls = 0;    ///< calls made (timed or not)

    /** One measurement of @p d ns covering @p n calls. */
    void
    add(std::int64_t d, std::uint64_t n = 1)
    {
        ns += d;
        timed += n;
        ++reads;
    }

    /**
     * Estimated busy time of all calls: the timed calls less the
     * recomputes inside them and the clock's own cost (one read per
     * measurement), scaled by calls / timed calls.
     */
    double
    estimate(double timer_ns) const
    {
        if (timed == 0)
            return 0.0;
        const double corrected = static_cast<double>(ns - excludeNs) -
                                 timer_ns * static_cast<double>(reads);
        return corrected * static_cast<double>(calls) /
               static_cast<double>(timed);
    }
};

struct IntervalAcc
{
    Acc step, sched, workload, l1, llc, victim, mem;
    std::int64_t recomputeNs = 0;
    std::uint64_t recomputes = 0;
    /** The layer timed on the current (sampled) step; null = none. */
    Acc *active = nullptr;

    /** The layers a sampled step times, in rotation. */
    Acc *
    layer(unsigned i)
    {
        Acc *const layers[] = {&sched, &workload, &l1, &llc, &victim, &mem};
        return layers[i % std::size(layers)];
    }
};

/** Forwards every hook to the real scheme, timing the two it owns. */
class TimedScheme final : public PartitionScheme
{
  public:
    TimedScheme(PartitionScheme &inner, IntervalAcc &acc)
        : inner_(inner), acc_(acc)
    {
    }

    std::string name() const override { return inner_.name(); }

    bool
    onHit(SharedCache &cache, CoreId core, const SetView &set,
          int way) override
    {
        return inner_.onHit(cache, core, set, way);
    }

    int
    chooseVictim(SharedCache &cache, CoreId core,
                 const SetView &set) override
    {
        ++acc_.victim.calls;
        if (acc_.active != &acc_.victim)
            return inner_.chooseVictim(cache, core, set);
        const auto t0 = Clock::now();
        const int way = inner_.chooseVictim(cache, core, set);
        acc_.victim.add(nanosBetween(t0, Clock::now()));
        return way;
    }

    bool
    onFill(SharedCache &cache, CoreId core, const SetView &set,
           int way) override
    {
        return inner_.onFill(cache, core, set, way);
    }

    void
    onIntervalEnd(const IntervalSnapshot &snap) override
    {
        const auto t0 = Clock::now();
        inner_.onIntervalEnd(snap);
        const std::int64_t d = nanosBetween(t0, Clock::now());
        acc_.recomputeNs += d;
        ++acc_.recomputes;
        // Timed on every call: keep it out of the timed step block or
        // LLC sample around it, or the scaling would multiply it.
        if (!acc_.active)
            acc_.step.excludeNs += d;
        else if (acc_.active == &acc_.llc)
            acc_.llc.excludeNs += d;
    }

  private:
    PartitionScheme &inner_;
    IntervalAcc &acc_;
};

/** One simulated core, built exactly as System builds it. */
struct Core
{
    const BenchmarkProfile *profile;
    std::unique_ptr<AccessGenerator> gen;
    L1Cache l1;
    Rng storeRng;
    double cycle = 0.0;
    double instrCarry = 0.0;
    std::uint64_t instructions = 0;
    double llcStall = 0.0;
    std::uint64_t llcHits = 0;
    std::uint64_t llcMisses = 0;
    bool finished = false;
    std::uint64_t prevInstr = 0;
    double prevCycle = 0.0;
    double prevStall = 0.0;
};

} // namespace

ReplayOutcome
replaySystem(const MachineConfig &config, const Workload &workload,
             SchemeKind kind, const char *hook_layer, double timer_ns,
             unsigned sample_every, SpanRecorder &rec)
{
    const std::string layer_prefix = hook_layer;
    // Span layer names must outlive the recorder: keep them static.
    const char *victim_layer =
        layer_prefix == "plane" ? "plane.victim" : "policies.victim";
    const char *recompute_layer = layer_prefix == "plane"
                                      ? "plane.recompute"
                                      : "policies.recompute";

    IntervalAcc acc;
    std::unique_ptr<PartitionScheme> scheme = makeScheme(kind, config);
    std::unique_ptr<TimedScheme> timed;
    if (scheme)
        timed = std::make_unique<TimedScheme>(*scheme, acc);

    SharedCache llc(config.llcConfig());
    MemorySystem mem(config.controllers(), config.ctrlServiceCycles,
                     config.dramCycles);
    llc.setScheme(timed.get());

    const std::uint32_t n = config.numCores;
    const auto &lib = ProfileLibrary::instance();
    std::vector<Core> cores;
    cores.reserve(n);
    for (CoreId c = 0; c < n; ++c) {
        const BenchmarkProfile &profile = lib.get(workload.benchmarks[c]);
        cores.push_back(Core{
            &profile,
            ProfileLibrary::makeGenerator(
                profile, c,
                config.seed * 0x9E3779B97F4A7C15ULL + c * 7919 + 1),
            L1Cache(config.l1Bytes, config.l1Ways, config.blockBytes),
            Rng(config.seed * 31 + c * 17 + 5),
        });
    }
    llc.setTimingHook([&cores, n](IntervalSnapshot &snap) {
        for (CoreId i = 0; i < n; ++i) {
            Core &c = cores[i];
            auto &cs = snap.cores[i];
            cs.instructions = c.instructions - c.prevInstr;
            cs.cycles = static_cast<std::uint64_t>(c.cycle - c.prevCycle);
            cs.llcStallCycles =
                static_cast<std::uint64_t>(c.llcStall - c.prevStall);
            c.prevInstr = c.instructions;
            c.prevCycle = c.cycle;
            c.prevStall = c.llcStall;
        }
    });

    ReplayOutcome out;
    out.prism = kind == SchemeKind::PrismH;

    const auto timedCall = [&acc](Acc &a, auto &&fn) {
        if (acc.active != &a)
            return fn();
        const auto t0 = Clock::now();
        auto r = fn();
        a.add(nanosBetween(t0, Clock::now()));
        return r;
    };

    // One scheduler step of System::step.
    const auto step = [&](CoreId id) {
        Core &c = cores[id];
        c.instrCarry += 1.0 / c.profile->memRatio;
        std::uint64_t k = static_cast<std::uint64_t>(c.instrCarry);
        c.instrCarry -= static_cast<double>(k);
        if (k == 0)
            k = 1;
        c.instructions += k;
        c.cycle += static_cast<double>(k) * c.profile->cpiIdeal;

        ++acc.workload.calls;
        const Addr addr =
            timedCall(acc.workload, [&c] { return c.gen->next(); });
        const bool is_store = c.storeRng.chance(c.profile->storeFrac);
        ++acc.l1.calls;
        if (timedCall(acc.l1, [&c, addr] { return c.l1.access(addr); }))
            return;

        c.cycle += config.llcHitCycles;
        ++acc.llc.calls;
        const AccessResult res = timedCall(acc.llc, [&] {
            return llc.access(id, addr, is_store);
        });
        if (res.writeback) {
            ++acc.mem.calls;
            timedCall(acc.mem, [&] {
                mem.writeback(addr ^ 0x5A5A5A5Aull, c.cycle);
                return 0;
            });
        }
        if (res.hit) {
            ++c.llcHits;
            ++out.llcHits;
            return;
        }
        ++c.llcMisses;
        ++acc.mem.calls;
        const double lat = timedCall(acc.mem, [&] {
                               return mem.request(addr, c.cycle);
                           }) /
                           c.profile->mlp;
        c.cycle += lat;
        c.llcStall += lat;
    };

    // Totals across intervals, for the whole-replay layer estimates.
    ReplayLayers &L = out.layers;
    const auto pick = [&cores, n]() {
        CoreId next = 0;
        double best = -1.0;
        for (CoreId i = 0; i < n; ++i) {
            if (best < 0.0 || cores[i].cycle < best) {
                best = cores[i].cycle;
                next = i;
            }
        }
        return next;
    };

    std::uint64_t interval_id = 0;
    std::uint64_t seen_intervals = 0;
    std::int64_t interval_open = rec.now();
    out.startNs = interval_open;

    const auto closeInterval = [&](std::int64_t end) {
        // The recompute is timed on every call and charged as timed;
        // the sampled regions around it exclude it.
        const double rc = static_cast<double>(acc.recomputeNs) -
                          timer_ns * static_cast<double>(acc.recomputes);
        const double step_ns = acc.step.estimate(timer_ns) + rc;
        double llc_ns = acc.llc.estimate(timer_ns);
        double sched_ns = acc.sched.estimate(timer_ns);
        double wl_ns = acc.workload.estimate(timer_ns);
        double l1_ns = acc.l1.estimate(timer_ns);
        double victim_ns = acc.victim.estimate(timer_ns);
        double mem_ns = acc.mem.estimate(timer_ns);
        const double layers_ns = sched_ns + wl_ns + l1_ns + llc_ns + mem_ns;
        out.stepNs += step_ns;
        out.intervalWallNs += static_cast<double>(end - interval_open);
        out.layersNs += layers_ns + rc;
        // Per-call timers inflate cheap calls, so the layers can add up
        // to more than the measured step; then they are scaled down to
        // fit it, keeping their proportions.
        if (layers_ns > step_ns - rc && layers_ns > 0.0) {
            const double f = std::max(0.0, step_ns - rc) / layers_ns;
            for (double *ns : {&sched_ns, &wl_ns, &l1_ns, &llc_ns,
                               &victim_ns, &mem_ns})
                *ns *= f;
        }
        llc_ns += rc;

        const auto root = rec.timed("sim.interval", nullptr, interval_id,
                                    -1, interval_open, end);
        const auto s = rec.aggregate(
            "sim.step", "sim.step", interval_id, root,
            static_cast<std::int64_t>(step_ns), acc.step.calls);
        rec.aggregate("sim.sched", "sim.sched", interval_id, s,
                      static_cast<std::int64_t>(sched_ns),
                      acc.sched.calls);
        rec.aggregate("workload.next", "workload", interval_id, s,
                      static_cast<std::int64_t>(wl_ns),
                      acc.workload.calls);
        rec.aggregate("cache.l1", "cache.l1", interval_id, s,
                      static_cast<std::int64_t>(l1_ns), acc.l1.calls);
        const auto l = rec.aggregate(
            "cache.llc", "cache.llc", interval_id, s,
            static_cast<std::int64_t>(llc_ns), acc.llc.calls);
        if (timed) {
            rec.aggregate(victim_layer, victim_layer, interval_id, l,
                          static_cast<std::int64_t>(victim_ns),
                          acc.victim.calls);
            rec.aggregate(recompute_layer, recompute_layer, interval_id,
                          l, static_cast<std::int64_t>(rc),
                          acc.recomputes);
        }
        rec.aggregate("sim.mem", "sim.mem", interval_id, s,
                      static_cast<std::int64_t>(mem_ns), acc.mem.calls);

        L.sched += sched_ns;
        L.workload += wl_ns;
        L.l1 += l1_ns;
        L.llc += llc_ns;
        L.victim += victim_ns;
        L.recompute += rc;
        L.mem += mem_ns;
        out.steps += acc.step.calls;
        out.l1Accesses += acc.l1.calls;
        out.llcAccesses += acc.llc.calls;
        out.victimCalls += acc.victim.calls;
        out.recomputes += acc.recomputes;
        out.memCalls += acc.mem.calls;

        acc = IntervalAcc{};
        ++interval_id;
        interval_open = end;
    };

    // Steps are timed in blocks: the steps between two samples form
    // one block, timed by one pair of clock reads (a read on each side
    // of a single step would break the overlap between steps and
    // inflate it). Samples come at random gaps (mean sample_every
    // steps), so that no period of the scheduler aliases with them.
    // Each times one layer on one step, the next in rotation; that
    // step stays out of the blocks.
    Rng sampler(0x5A3B1E5ull);
    const auto gap = [&sampler, sample_every] {
        return sampler.next() % (2 * sample_every - 1);
    };
    std::uint64_t step_no = 0, next_sample = gap();
    unsigned layer = 0;
    std::uint64_t block_steps = 0;
    Clock::time_point block_start = Clock::now();
    const auto closeBlock = [&](Clock::time_point end) {
        if (block_steps > 0)
            acc.step.add(nanosBetween(block_start, end), block_steps);
        block_steps = 0;
    };
    // Run one scheduler step; returns the core stepped.
    const auto schedulerStep = [&]() {
        ++acc.step.calls;
        ++acc.sched.calls;
        CoreId next;
        if (step_no++ == next_sample) {
            closeBlock(Clock::now());
            acc.active = acc.layer(layer++);
            next = timedCall(acc.sched, pick);
            step(next);
            acc.active = nullptr;
            next_sample = step_no + gap();
            block_start = Clock::now();
        } else {
            next = pick();
            step(next);
            ++block_steps;
        }
        if (llc.intervals() != seen_intervals) {
            seen_intervals = llc.intervals();
            const auto end = Clock::now();
            closeBlock(end);
            closeInterval(rec.at(end));
            block_start = Clock::now();
        }
        return next;
    };

    const auto wall0 = Clock::now();
    if (config.warmupInstr > 0) {
        std::uint32_t warm = 0;
        std::vector<char> done(n, 0);
        while (warm < n) {
            const CoreId next = schedulerStep();
            if (!done[next] &&
                cores[next].instructions >= config.warmupInstr) {
                done[next] = 1;
                ++warm;
            }
        }
    }

    for (Core &c : cores) {
        c.instructions = 0;
        c.llcStall = 0.0;
        c.llcHits = 0;
        c.llcMisses = 0;
        c.prevInstr = 0;
        c.prevCycle = c.cycle;
        c.prevStall = 0.0;
        c.finished = false;
    }
    std::vector<double> measure_start(n);
    for (CoreId i = 0; i < n; ++i)
        measure_start[i] = cores[i].cycle;

    out.result.cores.resize(n);
    std::uint32_t finished = 0;
    while (finished < n) {
        const CoreId next = schedulerStep();
        Core &c = cores[next];
        if (!c.finished && c.instructions >= config.instrBudget) {
            c.finished = true;
            ++finished;
            CoreResult &r = out.result.cores[next];
            r.instructions = c.instructions;
            r.cycles = c.cycle - measure_start[next];
            r.llcStallCycles = c.llcStall;
            r.llcHits = c.llcHits;
            r.llcMisses = c.llcMisses;
            r.occupancyAtFinish = llc.occupancyFraction(next);
        }
    }
    out.result.intervals = llc.intervals();
    const auto end = Clock::now();
    closeBlock(end);
    closeInterval(rec.at(end));
    out.endNs = interval_open;
    out.wallSeconds = secondsSince(wall0);

    for (const Core &c : cores)
        out.cores.push_back(ReplayCore{
            c.instructions, static_cast<std::uint64_t>(c.cycle),
            c.llcHits, c.llcMisses, c.l1.hits(), c.l1.misses()});
    out.totalMisses = llc.totalMisses();
    out.writebacks = llc.writebacks();
    if (auto *p = dynamic_cast<PrismScheme *>(scheme.get()))
        out.victimlessFraction = p->victimlessFraction();
    return out;
}

std::string
compareReplay(const ReplayOutcome &replay, const std::string &stats_json,
              const RunResult &real)
{
    JsonValue doc;
    const Status st = parseJson(stats_json, doc);
    if (!st.ok())
        return "stats JSON: " + st.message();
    const JsonValue &llc = doc.at("system").at("llc");
    if (llc.at("intervals").asU64() != replay.result.intervals)
        return "intervals";
    if (llc.at("total_misses").asU64() != replay.totalMisses)
        return "llc total_misses";
    if (llc.at("writebacks").asU64() != replay.writebacks)
        return "llc writebacks";
    const JsonValue &cores = doc.at("cores");
    if (cores.size() != replay.cores.size())
        return "core count";
    for (std::size_t c = 0; c < replay.cores.size(); ++c) {
        const JsonValue &j = cores.at(c);
        const ReplayCore &r = replay.cores[c];
        const std::string at = " on core " + std::to_string(c);
        if (j.at("instructions").asU64() != r.instructions)
            return "instructions" + at;
        if (j.at("cycles").asU64() != r.cycles)
            return "cycles" + at;
        if (j.at("llc_hits").asU64() != r.llcHits)
            return "llc_hits" + at;
        if (j.at("llc_misses").asU64() != r.llcMisses)
            return "llc_misses" + at;
        if (j.at("l1_hits").asU64() != r.l1Hits)
            return "l1_hits" + at;
        if (j.at("l1_misses").asU64() != r.l1Misses)
            return "l1_misses" + at;
        // Measured phase: Runner::run reports hits, misses and IPC
        // (measured instructions over measured cycles).
        const CoreResult &m = replay.result.cores[c];
        if (real.llcHits[c] != m.llcHits)
            return "measured llc hits" + at;
        if (real.llcMisses[c] != m.llcMisses)
            return "measured llc misses" + at;
        if (real.ipc[c] != m.ipc())
            return "measured cycles (IPC)" + at;
    }
    if (real.intervals != replay.result.intervals)
        return "RunResult intervals";
    return "";
}

} // namespace perfbench

namespace perfbench
{

namespace
{

double
perCall(double ns, std::uint64_t calls)
{
    return calls ? ns / static_cast<double>(calls) : 0.0;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

} // namespace

void
checkSimCoverage(const std::vector<ReplayOutcome> &replays, Report &report)
{
    double step = 0.0, wall = 0.0, layers = 0.0;
    for (const ReplayOutcome &r : replays) {
        step += r.stepNs;
        wall += r.intervalWallNs;
        layers += r.layersNs;
    }
    const double covered = wall > 0.0 ? step / wall : 0.0;
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "timed steps cover %.1f%% of the replayed wall time "
                  "(limit 90-110%%)",
                  covered * 100.0);
    report.check("trace.coverage", std::fabs(covered - 1.0) <= 0.10,
                 detail);
    report.note("step_over_wall", covered);
    report.note("layers_over_step", step > 0.0 ? layers / step : 0.0);
}

void
reportSimLayers(const std::vector<ReplayOutcome> &replays,
                const std::vector<std::string> &hook_layers,
                const SpanRecorder &rec, double wall_ns, Report &report)
{
    ReplayLayers all;
    std::uint64_t steps = 0, l1_calls = 0, l1_hits = 0, llc_calls = 0,
                  llc_hits = 0, mem_calls = 0;
    // Hook totals per family: [0] plane, [1] policies.
    double victim_ns[2] = {0, 0}, recompute_ns[2] = {0, 0};
    std::uint64_t victim_calls[2] = {0, 0}, recomputes[2] = {0, 0};
    std::uint64_t replacements = 0;
    double victimless = 0.0;

    for (std::size_t i = 0; i < replays.size(); ++i) {
        const ReplayOutcome &r = replays[i];
        all.workload += r.layers.workload;
        all.l1 += r.layers.l1;
        all.llc += r.layers.llc - r.layers.victim - r.layers.recompute;
        all.sched += r.layers.sched;
        all.mem += r.layers.mem;
        steps += r.steps;
        l1_calls += r.l1Accesses;
        llc_calls += r.llcAccesses;
        llc_hits += r.llcHits;
        mem_calls += r.memCalls;
        for (const ReplayCore &c : r.cores)
            l1_hits += c.l1Hits;
        const int f = hook_layers[i] == "plane" ? 0 : 1;
        victim_ns[f] += r.layers.victim;
        recompute_ns[f] += r.layers.recompute;
        victim_calls[f] += r.victimCalls;
        recomputes[f] += r.recomputes;
        if (r.prism) {
            victimless += r.victimlessFraction *
                          static_cast<double>(r.victimCalls);
            replacements += r.victimCalls;
        }
    }

    const bool plane = std::count(hook_layers.begin(), hook_layers.end(),
                                  "plane") > 0;
    const bool policies = std::count(hook_layers.begin(),
                                     hook_layers.end(), "policies") > 0;
    report.metric("workload.next_ns", perCall(all.workload, steps), "ns");
    report.metric("cache.l1_ns", perCall(all.l1, l1_calls), "ns");
    report.metric("cache.llc_ns", perCall(all.llc, llc_calls), "ns");
    report.metric("sim.sched_ns", perCall(all.sched, steps), "ns");
    report.metric("sim.mem_ns", perCall(all.mem, mem_calls), "ns");
    report.metric("cache.l1_hit_ratio", ratio(l1_hits, l1_calls),
                  "fraction");
    report.metric("cache.llc_hit_ratio", ratio(llc_hits, llc_calls),
                  "fraction");
    if (plane) {
        report.metric("plane.victim_ns",
                      perCall(victim_ns[0], victim_calls[0]), "ns");
        report.metric("plane.recompute_us",
                      perCall(recompute_ns[0], recomputes[0]) / 1e3, "us");
        report.metric("plane.victimless_frac",
                      replacements ? victimless /
                                         static_cast<double>(replacements)
                                   : 0.0,
                      "fraction");
    }
    if (policies) {
        report.metric("policies.victim_ns",
                      perCall(victim_ns[1], victim_calls[1]), "ns");
        report.metric("policies.recompute_us",
                      perCall(recompute_ns[1], recomputes[1]) / 1e3, "us");
    }

    const std::map<std::string, double> self = rec.selfNsByLayer();
    const auto share = [&self, wall_ns](const std::string &layer) {
        const auto it = self.find(layer);
        return it == self.end() || wall_ns <= 0.0
                   ? 0.0
                   : std::max(0.0, it->second) / wall_ns;
    };
    report.metric("workload.share", share("workload"), "fraction");
    report.metric("cache.l1.share", share("cache.l1"), "fraction");
    report.metric("cache.llc.share", share("cache.llc"), "fraction");
    if (plane) {
        report.metric("plane.victim.share", share("plane.victim"),
                      "fraction");
        report.metric("plane.recompute.share", share("plane.recompute"),
                      "fraction");
    }
    if (policies)
        report.metric("policies.share",
                      share("policies.victim") + share("policies.recompute"),
                      "fraction");
    report.metric("sim.sched.share", share("sim.sched"), "fraction");
    report.metric("sim.mem.share", share("sim.mem"), "fraction");
    report.metric("sim.step.share", share("sim.step"), "fraction");
}

} // namespace perfbench
