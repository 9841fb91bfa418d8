#include "analysis/online_doctor.hh"

#include <utility>

namespace prism::analysis
{

RunSeries
OnlineDoctor::buildSeries(const telemetry::SlidingWindow &window,
                          const serve::ServeLiveState &state,
                          const serve::ServeConfig &config)
{
    RunSeries s;
    s.serve = true;
    s.plane = "store";
    s.scheme = canonicalSchemeName(
        std::string("PriSM-") + serve::policyName(config.policy));
    s.name = "serve/" + s.scheme;

    s.hasCounters = true;
    s.intervals = state.intervals;
    s.recomputes = state.recomputes;
    s.eq1Fallbacks = state.eq1Fallbacks;
    s.clampedEq1Inputs = state.clampedEq1Inputs;
    s.serveVictimless = state.victimlessEvictions;
    s.droppedSamples = state.droppedSamples;
    s.droppedEvents = state.droppedEvents;

    // Whole-run hit ratios, the formula snapshot() renders, so the
    // offline doctor on the emitted snapshots reproduces these
    // inputs bit for bit.
    for (const serve::TenantTotals &t : state.tenants) {
        const std::uint64_t accesses = t.hits + t.misses;
        s.serveHitRatio.push_back(
            accesses ? static_cast<double>(t.hits) /
                           static_cast<double>(accesses)
                     : 0.0);
    }
    for (std::size_t t = 0; t < state.tenants.size(); ++t)
        s.serveSloFloor.push_back(t < config.tenants.size()
                                      ? config.tenants[t].sloHit
                                      : 0.0);
    s.cores = static_cast<std::uint32_t>(s.serveHitRatio.size());

    for (std::size_t i = 0; i < window.size(); ++i) {
        const telemetry::SlidingWindow::Row &row = window.row(i);
        s.interval.push_back(row.interval);
        s.occupancy.push_back(row.occupancy);
        s.target.push_back(row.target);
        s.evProb.push_back(row.evProb);
        std::vector<double> ev;
        ev.reserve(row.evictions.size());
        for (const std::uint64_t e : row.evictions)
            ev.push_back(static_cast<double>(e));
        s.serveEvictions.push_back(std::move(ev));
    }
    s.hasSeries = !s.interval.empty();
    s.prism = !s.target.empty();

    s.hasDrift = true;
    for (std::uint32_t t = 0; t < window.tenants(); ++t) {
        const telemetry::TenantWindowStats ws = window.stats(t);
        s.driftMissRate.push_back(ws.missRateDrift);
        s.driftSlowdown.push_back(ws.slowdownDrift);
    }
    return s;
}

const Verdict &
OnlineDoctor::evaluate(const telemetry::SlidingWindow &window,
                       const serve::ServeLiveState &state,
                       const serve::ServeConfig &config)
{
    verdict_ =
        analyze(buildSeries(window, state, config), thresholds_);
    evaluated_ = true;
    return verdict_;
}

ServeLiveObserver::ServeLiveObserver(
    const serve::ServeConfig &config, LiveObserverOptions options)
    : config_(config), options_(std::move(options)),
      window_(static_cast<std::uint32_t>(config.tenants.size()),
              telemetry::WindowConfig{
                  options_.windowCapacity, options_.ewmaAlpha,
                  options_.thresholds.serveMissPenalty}),
      history_(static_cast<std::uint32_t>(config.tenants.size()),
               telemetry::WindowConfig{
                   config.recorderCapacity, options_.ewmaAlpha,
                   options_.thresholds.serveMissPenalty}),
      doctor_(options_.thresholds),
      exporter_(telemetry::ExporterConfig{
          options_.metricsJsonPath, options_.metricsPromPath,
          options_.metricsEvery})
{
    // The copied config is data only; the engine's hook pointers
    // must not dangle into a previous run.
    config_.observer = nullptr;
    config_.stopFlag = nullptr;
}

void
ServeLiveObserver::onIntervalClosed(
    const telemetry::IntervalSample &sample,
    std::span<const std::uint64_t> evictions,
    const serve::ServeLiveState &state)
{
    window_.push(sample, evictions);
    history_.push(sample, evictions);
    last_ = state;
    if (options_.onlineDoctor)
        doctor_.evaluate(window_, state, config_);
}

void
ServeLiveObserver::onRoundEnd(const serve::ServeLiveState &state)
{
    last_ = state;
    if (exporter_.due(state.rounds)) {
        Status st = exporter_.flush(snapshot());
        if (exportStatus_.ok() && !st)
            exportStatus_ = st;
    }
}

void
ServeLiveObserver::onRunEnd(const serve::ServeLiveState &state)
{
    last_ = state;
    ended_ = true;
    // The authoritative final verdict, over the whole run's rows:
    // cumulative totals are final here (a run whose last round
    // closed no interval would otherwise grade slightly stale hit
    // ratios). Both windows saw every interval, so their EWMA drift
    // agrees.
    if (options_.onlineDoctor)
        doctor_.evaluate(history_, state, config_);
}

Status
ServeLiveObserver::flushFinal()
{
    if (!exporter_.enabled())
        return exportStatus_;
    Status st = exporter_.flush(snapshot());
    if (!st)
        return st;
    return exportStatus_;
}

telemetry::MetricsSnapshot
ServeLiveObserver::snapshot() const
{
    telemetry::MetricsSnapshot snap;
    snap.source = "serve";
    snap.policy = serve::policyName(config_.policy);
    snap.run = "serve/" + canonicalSchemeName(
                              std::string("PriSM-") + snap.policy);
    snap.round = last_.rounds;
    snap.ops = last_.ops;
    snap.intervals = last_.intervals;

    snap.evictions = last_.evictions;
    snap.victimlessEvictions = last_.victimlessEvictions;
    snap.recomputes = last_.recomputes;
    snap.eq1Fallbacks = last_.eq1Fallbacks;
    snap.clampedEq1Inputs = last_.clampedEq1Inputs;
    snap.occupancyBytes = last_.occupancyBytes;
    snap.capacityBytes = config_.capacityBytes;
    snap.objects = last_.objects;
    snap.rehashes = last_.rehashes;
    snap.droppedSamples = last_.droppedSamples;
    snap.droppedEvents = last_.droppedEvents;

    snap.tenants.resize(last_.tenants.size());
    for (std::size_t t = 0; t < last_.tenants.size(); ++t) {
        const serve::TenantTotals &tt = last_.tenants[t];
        telemetry::TenantLiveState &ts = snap.tenants[t];
        ts.hits = tt.hits;
        ts.misses = tt.misses;
        ts.shadowHits = tt.shadowHits;
        ts.evictions = tt.evictions;
        ts.occupancyBytes = tt.occupancyBytes;
        const std::uint64_t accesses = tt.hits + tt.misses;
        ts.hitRatio = accesses
                          ? static_cast<double>(tt.hits) /
                                static_cast<double>(accesses)
                          : 0.0;
        ts.occupancy =
            config_.capacityBytes
                ? static_cast<double>(tt.occupancyBytes) /
                      static_cast<double>(config_.capacityBytes)
                : 0.0;
        ts.target =
            t < last_.targets.size() ? last_.targets[t] : 0.0;
        ts.evProb =
            t < last_.evProbs.size() ? last_.evProbs[t] : 0.0;
        ts.sloHit = t < config_.tenants.size()
                        ? config_.tenants[t].sloHit
                        : 0.0;
    }

    snap.window = &window_;
    if (ended_)
        snap.history = &history_;

    if (options_.onlineDoctor && doctor_.evaluated()) {
        const Verdict &v = doctor_.verdict();
        snap.doctorOverall = findingStatusName(v.overall);
        for (const Finding &f : v.findings) {
            telemetry::DoctorFindingLine line;
            line.check = f.check;
            line.status = findingStatusName(f.status);
            line.value = f.value;
            line.threshold = f.threshold;
            line.hasValue = f.hasValue;
            line.detail = f.detail;
            snap.doctorFindings.push_back(std::move(line));
        }
    }

    snap.metrics = last_.metrics.get();
    return snap;
}

} // namespace prism::analysis
