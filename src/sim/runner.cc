#include "sim/runner.hh"

#include "common/prism_assert.hh"
#include "fault/fault_injector.hh"
#include "plane/way_mask_scheme.hh"
#include "policies/pipp.hh"
#include "policies/tadip.hh"
#include "policies/vantage.hh"
#include "policies/way_partition.hh"
#include "prism/alloc_fair.hh"
#include "prism/alloc_hitmax.hh"
#include "prism/alloc_lookahead.hh"
#include "prism/alloc_qos.hh"
#include "prism/hitmax_waypart.hh"
#include "prism/prism_scheme.hh"
#include "sim/metrics.hh"

namespace prism
{

const char *
schemeName(SchemeKind kind)
{
    switch (kind) {
      case SchemeKind::Baseline:
        return "Baseline";
      case SchemeKind::UCP:
        return "UCP";
      case SchemeKind::PIPP:
        return "PIPP";
      case SchemeKind::TADIP:
        return "TA-DIP";
      case SchemeKind::FairWP:
        return "FairWP";
      case SchemeKind::Vantage:
        return "Vantage";
      case SchemeKind::PrismH:
        return "PriSM-H";
      case SchemeKind::PrismF:
        return "PriSM-F";
      case SchemeKind::PrismQ:
        return "PriSM-Q";
      case SchemeKind::PrismLA:
        return "PriSM-LA";
      case SchemeKind::PrismWM:
        return "PriSM-WM";
      case SchemeKind::WPHitMax:
        return "WP-HitMax";
      case SchemeKind::StaticWP:
        return "StaticWP";
    }
    return "?";
}

bool
schemeFromName(std::string_view name, SchemeKind &kind)
{
    for (const SchemeKind k :
         {SchemeKind::Baseline, SchemeKind::UCP, SchemeKind::PIPP,
          SchemeKind::TADIP, SchemeKind::FairWP, SchemeKind::Vantage,
          SchemeKind::PrismH, SchemeKind::PrismF, SchemeKind::PrismQ,
          SchemeKind::PrismLA, SchemeKind::PrismWM,
          SchemeKind::WPHitMax, SchemeKind::StaticWP}) {
        if (name == schemeName(k)) {
            kind = k;
            return true;
        }
    }
    if (name == "LRU") {
        kind = SchemeKind::Baseline;
        return true;
    }
    return false;
}

bool
replFromName(std::string_view name, ReplKind &kind)
{
    for (const ReplKind k :
         {ReplKind::LRU, ReplKind::TimestampLRU, ReplKind::DIP,
          ReplKind::RRIP, ReplKind::Random}) {
        if (name == replKindName(k)) {
            kind = k;
            return true;
        }
    }
    return false;
}

double
RunResult::antt() const
{
    // Quarantined sweep jobs carry an empty (default) result; report
    // NaN instead of tripping the metric layer's input validation.
    if (ipc.empty() || ipcStandalone.empty())
        return std::numeric_limits<double>::quiet_NaN();
    return prism::antt(ipcStandalone, ipc);
}

double
RunResult::fairness() const
{
    if (ipc.empty() || ipcStandalone.empty())
        return std::numeric_limits<double>::quiet_NaN();
    return prism::fairness(ipcStandalone, ipc);
}

double
RunResult::ipcThroughput() const
{
    return prism::ipcThroughput(ipc);
}

std::unique_ptr<PartitionScheme>
Runner::makeScheme(SchemeKind kind, const SchemeOptions &options,
                   double qos_target_ipc) const
{
    const std::uint32_t cores = config_.numCores;
    const std::uint32_t ways = config_.llcWays;
    const std::uint64_t seed = config_.seed ^ 0xDEC0DE5Cu;
    const PrismParams prism_params{options.probBits};

    switch (kind) {
      case SchemeKind::Baseline:
        return nullptr;
      case SchemeKind::UCP:
        return std::make_unique<UcpScheme>(cores, ways);
      case SchemeKind::PIPP:
        return std::make_unique<PippScheme>(cores, ways, seed);
      case SchemeKind::TADIP:
        return std::make_unique<TadipScheme>(cores, seed);
      case SchemeKind::FairWP:
        return std::make_unique<KimFairScheme>(cores, ways);
      case SchemeKind::Vantage: {
        VantageParams vp;
        vp.unitsPerWay = options.vantageUnitsPerWay;
        return std::make_unique<VantageScheme>(
            cores, config_.llcConfig().numBlocks(), ways, vp);
      }
      case SchemeKind::PrismH:
        return std::make_unique<PrismScheme>(
            cores, std::make_unique<HitMaxPolicy>(), seed, prism_params);
      case SchemeKind::PrismF:
        return std::make_unique<PrismScheme>(
            cores, std::make_unique<FairPolicy>(), seed, prism_params);
      case SchemeKind::PrismQ:
        return std::make_unique<PrismScheme>(
            cores, std::make_unique<QosPolicy>(qos_target_ipc), seed,
            prism_params);
      case SchemeKind::PrismLA:
        return std::make_unique<PrismScheme>(
            cores,
            std::make_unique<LookaheadPolicy>(
                options.vantageUnitsPerWay),
            seed, prism_params);
      case SchemeKind::PrismWM:
        return std::make_unique<WayMaskScheme>(
            cores, ways, std::make_unique<HitMaxPolicy>(), seed,
            ControllerParams{.probBits = options.probBits});
      case SchemeKind::WPHitMax:
        return std::make_unique<HitMaxWayScheme>(cores, ways);
      case SchemeKind::StaticWP:
        return std::make_unique<StaticWayScheme>(cores, ways);
    }
    panic("Runner::makeScheme: unknown scheme");
}

double
Runner::standaloneIpc(const std::string &benchmark,
                      const CancelToken *cancel)
{
    // The memo is keyed by the solo machine fingerprint so Runners
    // with different configurations can share one memo without
    // collisions, and concurrent requests compute each reference
    // simulation exactly once.
    return standalone_memo_->getOrCompute(
        solo_fingerprint_ + "|" + benchmark, [&]() {
            // Same machine, one core, whole LLC, unmanaged
            // replacement. Keep the memory system of the shared
            // machine so the stand-alone run sees identical DRAM
            // latency (just no contention).
            MachineConfig solo = config_;
            solo.numCores = 1;

            Workload w;
            w.name = "solo:" + benchmark;
            w.benchmarks = {benchmark};

            System system(solo, w, nullptr);
            system.setCancelToken(cancel);
            const SystemResult res = system.run();
            return res.cores[0].ipc();
        });
}

RunResult
Runner::run(const Workload &workload, SchemeKind kind,
            const SchemeOptions &options)
{
    {
        const std::vector<std::string> errors = config_.validate();
        if (!errors.empty()) {
            std::string joined = "Runner: invalid machine configuration:";
            for (const std::string &e : errors)
                joined += "\n  - " + e;
            fatal(joined);
        }
    }
    fatalIf(workload.benchmarks.size() != config_.numCores,
            "Runner::run: workload does not match machine core count");

    RunResult out;
    out.workload = workload.name;
    out.scheme = schemeName(kind);
    out.benchmarks = workload.benchmarks;

    for (const auto &bench : workload.benchmarks)
        out.ipcStandalone.push_back(
            standaloneIpc(bench, options.cancel));

    // PriSM-Q pins its IPC floor to core 0's stand-alone IPC.
    const double qos_target =
        options.qosTargetFrac * out.ipcStandalone[0];

    std::unique_ptr<FaultInjector> injector;
    if (!options.faultSpec.empty()) {
        std::vector<FaultClause> clauses;
        const Status st = parseFaultSpec(options.faultSpec, clauses);
        fatalIf(!st.ok(), st.message());
        for (const FaultClause &c : clauses)
            fatalIf(isExecFaultKind(c.kind),
                    std::string("Runner::run: exec-level fault kind '") +
                        faultKindName(c.kind) +
                        "' is only valid in the sweep chaos spec "
                        "(prism_bench --chaos)");
        injector = std::make_unique<FaultInjector>(
            std::move(clauses), config_.seed ^ 0xFA017EC7ULL);
    }

    auto scheme = makeScheme(kind, options, qos_target);
    // Every PriSM-family scheme hosts the one shared controller; the
    // generic wiring below reaches it through ControllerHost and only
    // backend-specific statistics go through the concrete types.
    auto *host = dynamic_cast<ControllerHost *>(scheme.get());
    auto *prism_scheme = dynamic_cast<PrismScheme *>(scheme.get());
    auto *wm_scheme = dynamic_cast<WayMaskScheme *>(scheme.get());
    if (host) {
        host->controller().setChecked(options.checked);
        host->controller().setFaultInjector(injector.get());
    }

    std::shared_ptr<telemetry::IntervalRecorder> recorder;
    if (options.telemetry.enabled)
        recorder = std::make_shared<telemetry::IntervalRecorder>(
            options.telemetry.capacity);

    System system(config_, workload, scheme.get());
    system.setCancelToken(options.cancel);
    system.llc().setChecked(options.checked);
    if (recorder) {
        system.setRecorder(recorder.get());
        if (host)
            host->controller().setRecorder(recorder.get());
    }
    if (options.telemetry.enabled && options.telemetry.metrics) {
        telemetry::MetricsRegistry &m = *options.telemetry.metrics;
        system.llc().setAccessSpan(m.span("llc.access"));
        if (host)
            host->controller().setRecomputeSpan(
                m.span("prism.recompute"));
    }
    if (injector) {
        FaultInjector *inj = injector.get();
        system.llc().setOccupancyFaultHook(
            [inj](std::vector<std::uint64_t> &occ,
                  std::uint64_t total_blocks, std::uint64_t interval) {
                return inj->corruptOccupancy(occ, total_blocks,
                                             interval);
            });
    }

    const SystemResult res = system.run();
    if (options.statsSink)
        system.dumpStats(*options.statsSink);
    if (options.statsJsonSink)
        system.dumpStatsJson(*options.statsJsonSink);
    out.recorder = recorder;

    out.intervals = res.intervals;
    for (CoreId c = 0; c < config_.numCores; ++c) {
        out.ipc.push_back(res.cores[c].ipc());
        out.llcMisses.push_back(res.cores[c].llcMisses);
        out.llcHits.push_back(res.cores[c].llcHits);
        out.occupancyAtFinish.push_back(res.cores[c].occupancyAtFinish);
    }

    out.invariantViolations = system.llc().invariantViolations();
    out.ownershipRepairs = system.llc().ownershipRepairs();
    if (injector)
        out.faultsInjected = injector->injected();

    if (host) {
        const PrismController &ctl = host->controller();
        out.recomputes = ctl.recomputes();
        out.degradedIntervals = ctl.degradedIntervals();
        out.invariantViolations += ctl.invariantViolations();
        out.clampedEq1Inputs = ctl.clampedInputs();
        out.droppedRecomputes = ctl.droppedRecomputes();
        out.fallbackEntries = ctl.fallbackEntries();
        for (CoreId c = 0; c < config_.numCores; ++c) {
            out.evProbMean.push_back(ctl.probStat(c).mean());
            out.evProbStddev.push_back(ctl.probStat(c).stddev());
        }
    }
    if (prism_scheme)
        out.victimlessFraction = prism_scheme->victimlessFraction();
    if (wm_scheme) {
        out.plane = "way-mask";
        out.wayQuantError = wm_scheme->wayQuantError().mean();
    }
    return out;
}

} // namespace prism
