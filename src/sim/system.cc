#include "sim/system.hh"

#include <ostream>

#include "common/json.hh"
#include "common/prism_assert.hh"
#include "plane/way_mask_scheme.hh"
#include "prism/prism_scheme.hh"
#include "sim/clock_tree.hh"
#include "workload/trace_generator.hh"

namespace prism
{

namespace
{

/**
 * Timing profile used for "trace:<path>" workload entries: the trace
 * supplies the addresses, this supplies generic 4-wide-OoO timing.
 */
const BenchmarkProfile traceProfile{
    "trace", BenchCategory::Intensive, StackDistParams{}, 1.0, 0.15,
    2.0, 0.3};

} // namespace

System::System(const MachineConfig &config, const Workload &workload,
               PartitionScheme *scheme)
    : config_(config), workload_name_(workload.name),
      llc_(config.llcConfig()),
      mem_(config.controllers(), config.ctrlServiceCycles,
           config.dramCycles),
      scheme_(scheme)
{
    fatalIf(workload.benchmarks.size() != config_.numCores,
            "System: workload size != core count");

    llc_.setScheme(scheme_);
    llc_.setTimingHook(
        [this](IntervalSnapshot &snap) { fillTiming(snap); });

    const auto &lib = ProfileLibrary::instance();
    cores_.reserve(config_.numCores);
    for (CoreId c = 0; c < config_.numCores; ++c) {
        const std::string &bench = workload.benchmarks[c];
        const BenchmarkProfile *profile;
        std::unique_ptr<AccessGenerator> gen;
        if (bench.rfind("trace:", 0) == 0) {
            // Replay a block-address trace file on this core with
            // the generic timing profile.
            profile = &traceProfile;
            gen = std::make_unique<TraceFileGenerator>(
                bench.substr(6), c);
        } else {
            profile = &lib.get(bench);
            gen = ProfileLibrary::makeGenerator(
                *profile, c,
                config_.seed * 0x9E3779B97F4A7C15ULL + c * 7919 + 1);
        }
        Core core{
            profile,
            std::move(gen),
            L1Cache(config_.l1Bytes, config_.l1Ways,
                    config_.blockBytes),
            Rng(config_.seed * 31 + c * 17 + 5),
        };
        cores_.push_back(std::move(core));
        drawNext(cores_.back());
    }
}

void
System::step(CoreId id)
{
    Core &c = cores_[id];

    // Instructions until (and including) the next memory access.
    c.instr_carry += 1.0 / c.profile->memRatio;
    std::uint64_t k = static_cast<std::uint64_t>(c.instr_carry);
    c.instr_carry -= static_cast<double>(k);
    if (k == 0)
        k = 1;
    c.instructions += k;
    c.cycle += static_cast<double>(k) * c.profile->cpiIdeal;

    const Addr addr = c.next_addr;
    const bool is_store = c.next_store;
    drawNext(c);
    if (c.l1.access(addr))
        return;

    // L1 miss: LLC lookup (part of CPI_ideal — it happens whether or
    // not the LLC hits, and does not depend on the partitioning).
    c.cycle += config_.llcHitCycles;
    const AccessResult res = llc_.access(id, addr, is_store);
    if (res.writeback)
        mem_.writeback(addr ^ 0x5A5A5A5Aull, c.cycle);
    if (res.hit) {
        ++c.llc_hits;
        return;
    }

    ++c.llc_misses;
    // The stall an OoO core observes is the memory latency divided by
    // the program's memory-level parallelism.
    const double lat =
        mem_.request(addr, c.cycle) / c.profile->mlp;
    c.cycle += lat;
    c.llc_stall += lat;
}

void
System::drawNext(Core &c)
{
    c.next_addr = c.gen->next();
    c.next_store = c.store_rng.chance(c.profile->storeFrac);
    // The cores step in clock order, so at n cores about n - 1 other
    // steps run before this access does: time for these loads to
    // arrive.
    c.l1.prefetch(c.next_addr);
    llc_.prefetch(c.next_addr);
}

void
System::resetStats()
{
    for (Core &c : cores_) {
        c.instructions = 0;
        c.llc_stall = 0.0;
        c.llc_hits = 0;
        c.llc_misses = 0;
        c.prev_instr = 0;
        c.prev_cycle = c.cycle;
        c.prev_stall = 0.0;
        c.finished = false;
    }
}

void
System::setRecorder(telemetry::IntervalRecorder *recorder)
{
    recorder_ = recorder;
    if (!recorder_) {
        llc_.setIntervalObserver(nullptr);
        return;
    }
    llc_.setIntervalObserver(
        [this](const IntervalSnapshot &snap, std::uint64_t interval) {
            recordInterval(snap, interval);
        });
}

void
System::recordInterval(const IntervalSnapshot &snap,
                       std::uint64_t interval)
{
    // Surface checked-mode occupancy repairs as instant events; the
    // cache only counts them, so detect new ones by delta.
    const std::uint64_t repairs = llc_.ownershipRepairs();
    if (repairs > seen_ownership_repairs_) {
        recorder_->addEvent(telemetry::TelemetryEvent{
            telemetry::EventKind::OwnershipRepair, interval,
            invalidCore,
            static_cast<double>(repairs - seen_ownership_repairs_)});
        seen_ownership_repairs_ = repairs;
    }

    telemetry::IntervalSample s;
    s.interval = interval;
    s.missesInInterval = snap.intervalMisses;
    const std::uint32_t n = snap.numCores();
    s.occupancy.resize(n);
    s.missFrac.resize(n);
    s.ipc.resize(n);
    s.hits.resize(n);
    s.misses.resize(n);
    for (CoreId c = 0; c < n; ++c) {
        const CoreIntervalStats &cs = snap.cores[c];
        s.occupancy[c] = snap.occupancyFraction(c);
        s.missFrac[c] = snap.missFraction(c);
        s.ipc[c] = cs.cycles
                       ? static_cast<double>(cs.instructions) /
                             static_cast<double>(cs.cycles)
                       : 0.0;
        s.hits[c] = cs.sharedHits;
        s.misses[c] = cs.sharedMisses;
    }
    if (const auto *h = dynamic_cast<const ControllerHost *>(scheme_)) {
        s.target = h->controller().targets();
        s.evProb = h->controller().evictionProbs();
    }
    recorder_->record(std::move(s));
}

void
System::fillTiming(IntervalSnapshot &snap)
{
    for (CoreId i = 0; i < config_.numCores; ++i) {
        Core &c = cores_[i];
        auto &cs = snap.cores[i];
        cs.instructions = c.instructions - c.prev_instr;
        cs.cycles = static_cast<std::uint64_t>(c.cycle - c.prev_cycle);
        cs.llcStallCycles =
            static_cast<std::uint64_t>(c.llc_stall - c.prev_stall);
        c.prev_instr = c.instructions;
        c.prev_cycle = c.cycle;
        c.prev_stall = c.llc_stall;
    }
}

SystemResult
System::run()
{
    std::vector<double> clocks(config_.numCores);
    for (CoreId i = 0; i < config_.numCores; ++i)
        clocks[i] = cores_[i].cycle;
    ClockTree order(clocks);
    const auto stepEarliest = [&]() {
        const CoreId id = order.next();
        step(id);
        order.update(id, cores_[id].cycle);
        pollCancel();
        return id;
    };

    // --- warm-up: fill the cache and let policies converge ---
    // All cores keep running (in global time order, like the measured
    // phase) until the slowest one crosses the warm-up budget, so the
    // per-core clocks stay aligned at the measurement boundary.
    if (config_.warmupInstr > 0) {
        std::uint32_t warm = 0;
        std::vector<char> done(config_.numCores, 0);
        while (warm < config_.numCores) {
            const CoreId next = stepEarliest();
            if (!done[next] &&
                cores_[next].instructions >= config_.warmupInstr) {
                done[next] = 1;
                ++warm;
            }
        }
    }

    // --- measured phase ---
    resetStats();
    std::vector<double> measure_start(config_.numCores);
    for (CoreId i = 0; i < config_.numCores; ++i)
        measure_start[i] = cores_[i].cycle;

    // Cores that exhaust their budget keep running (generating cache
    // pressure, as in the paper's methodology) until every core has
    // finished; their statistics are frozen at the crossing point.
    SystemResult result;
    result.cores.resize(config_.numCores);

    std::uint32_t finished = 0;
    while (finished < config_.numCores) {
        const CoreId next = stepEarliest();
        Core &c = cores_[next];
        if (!c.finished && c.instructions >= config_.instrBudget) {
            c.finished = true;
            ++finished;
            auto &r = result.cores[next];
            r.instructions = c.instructions;
            r.cycles = c.cycle - measure_start[next];
            r.llcStallCycles = c.llc_stall;
            r.llcHits = c.llc_hits;
            r.llcMisses = c.llc_misses;
            r.occupancyAtFinish = llc_.occupancyFraction(next);
            if (recorder_)
                recorder_->addEvent(telemetry::TelemetryEvent{
                    telemetry::EventKind::CoreFinish,
                    llc_.intervals(), next, r.occupancyAtFinish});
        }
    }

    result.intervals = llc_.intervals();
    return result;
}

void
System::dumpStats(std::ostream &os) const
{
    os << "system.cores " << config_.numCores << "\n"
       << "system.llc.size_bytes " << config_.llcBytes << "\n"
       << "system.llc.ways " << config_.llcWays << "\n"
       << "system.llc.interval_w " << llc_.intervalLength() << "\n"
       << "system.llc.intervals " << llc_.intervals() << "\n"
       << "system.llc.total_misses " << llc_.totalMisses() << "\n"
       << "system.llc.writebacks " << llc_.writebacks() << "\n"
       << "system.mem.controllers " << config_.controllers() << "\n"
       << "system.mem.read_requests " << mem_.requests() << "\n"
       << "system.mem.writebacks " << mem_.writebacks() << "\n"
       << "system.mem.mean_queue_cycles " << mem_.meanQueueCycles()
       << "\n"
       << "system.llc.checked " << (llc_.checked() ? 1 : 0) << "\n"
       << "system.llc.invariant_violations "
       << llc_.invariantViolations() << "\n"
       << "system.llc.ownership_repairs " << llc_.ownershipRepairs()
       << "\n";
    if (const auto *h = dynamic_cast<const ControllerHost *>(scheme_)) {
        const PrismController &ctl = h->controller();
        os << "prism.recomputes " << ctl.recomputes() << "\n"
           << "prism.degraded_intervals " << ctl.degradedIntervals()
           << "\n"
           << "prism.invariant_violations "
           << ctl.invariantViolations() << "\n"
           << "prism.dropped_recomputes " << ctl.droppedRecomputes()
           << "\n"
           << "prism.clamped_eq1_inputs " << ctl.clampedInputs()
           << "\n"
           << "prism.eq1_fallbacks " << ctl.eq1Fallbacks() << "\n";
        if (const auto *wm =
                dynamic_cast<const WayMaskScheme *>(scheme_))
            os << "prism.way_quant_error "
               << wm->wayQuantError().mean() << "\n";
        if (ctl.faultInjector())
            os << "prism.faults_injected "
               << ctl.faultInjector()->injected() << "\n";
    }
    for (CoreId c = 0; c < config_.numCores; ++c) {
        const Core &core = cores_[c];
        const std::string p = "core" + std::to_string(c) + ".";
        os << p << "benchmark " << core.profile->name << "\n"
           << p << "instructions " << core.instructions << "\n"
           << p << "cycles " << static_cast<std::uint64_t>(core.cycle)
           << "\n"
           << p << "llc_hits " << core.llc_hits << "\n"
           << p << "llc_misses " << core.llc_misses << "\n"
           << p << "llc_stall_cycles "
           << static_cast<std::uint64_t>(core.llc_stall) << "\n"
           << p << "l1_hits " << core.l1.hits() << "\n"
           << p << "l1_misses " << core.l1.misses() << "\n"
           << p << "occupancy_blocks " << llc_.occupancy(c) << "\n";
    }
}

void
System::dumpStatsJson(std::ostream &os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("schema", "prism-stats-v1");
    w.kv("workload", workload_name_);
    w.kv("scheme",
         scheme_ ? scheme_->name() : std::string("Baseline"));

    w.key("system");
    w.beginObject();
    w.kv("cores", config_.numCores);
    w.key("llc");
    w.beginObject();
    w.kv("size_bytes", config_.llcBytes);
    w.kv("ways", config_.llcWays);
    w.kv("interval_w", llc_.intervalLength());
    w.kv("intervals", llc_.intervals());
    w.kv("total_misses", llc_.totalMisses());
    w.kv("writebacks", llc_.writebacks());
    w.kv("checked", llc_.checked());
    w.kv("invariant_violations", llc_.invariantViolations());
    w.kv("ownership_repairs", llc_.ownershipRepairs());
    w.endObject();
    w.key("mem");
    w.beginObject();
    w.kv("controllers", config_.controllers());
    w.kv("read_requests", mem_.requests());
    w.kv("writebacks", mem_.writebacks());
    w.kv("mean_queue_cycles", mem_.meanQueueCycles());
    w.endObject();
    w.endObject();

    if (const auto *h = dynamic_cast<const ControllerHost *>(scheme_)) {
        const PrismController &ctl = h->controller();
        w.key("prism");
        w.beginObject();
        w.kv("recomputes", ctl.recomputes());
        w.kv("degraded_intervals", ctl.degradedIntervals());
        w.kv("invariant_violations", ctl.invariantViolations());
        w.kv("dropped_recomputes", ctl.droppedRecomputes());
        w.kv("clamped_eq1_inputs", ctl.clampedInputs());
        w.kv("eq1_fallbacks", ctl.eq1Fallbacks());
        w.kv("fallback_entries", ctl.fallbackEntries());
        if (const auto *wm =
                dynamic_cast<const WayMaskScheme *>(scheme_))
            w.kv("way_quant_error", wm->wayQuantError().mean());
        if (ctl.faultInjector())
            w.kv("faults_injected", ctl.faultInjector()->injected());
        w.endObject();
    }

    // Ring totals let offline consumers (prism_doctor) tell a
    // truncated recording from a quiet one without the trace file.
    if (recorder_) {
        w.key("telemetry");
        w.beginObject();
        w.kv("capacity",
             static_cast<std::uint64_t>(recorder_->capacity()));
        w.kv("samples_recorded", recorder_->recorded());
        w.kv("dropped_samples", recorder_->droppedSamples());
        w.kv("events_seen", recorder_->eventsSeen());
        w.kv("dropped_events", recorder_->droppedEvents());
        w.endObject();
    }

    w.key("cores");
    w.beginArray();
    for (CoreId c = 0; c < config_.numCores; ++c) {
        const Core &core = cores_[c];
        w.beginObject();
        w.kv("benchmark", core.profile->name);
        w.kv("instructions", core.instructions);
        w.kv("cycles", static_cast<std::uint64_t>(core.cycle));
        w.kv("llc_hits", core.llc_hits);
        w.kv("llc_misses", core.llc_misses);
        w.kv("llc_stall_cycles",
             static_cast<std::uint64_t>(core.llc_stall));
        w.kv("l1_hits", core.l1.hits());
        w.kv("l1_misses", core.l1.misses());
        w.kv("occupancy_blocks", llc_.occupancy(c));
        w.endObject();
    }
    w.endArray();

    w.endObject();
}

} // namespace prism
