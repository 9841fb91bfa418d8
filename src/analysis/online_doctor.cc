#include "analysis/online_doctor.hh"

#include <algorithm>
#include <sstream>
#include <utility>

#include "analysis/series.hh"
#include "common/atomic_file.hh"
#include "common/json.hh"
#include "common/prism_assert.hh"

namespace prism::analysis
{

namespace
{

/** prism_doctor's verdict on @p snap's rendered text. */
Verdict
gradeText(const telemetry::MetricsSnapshot &snap)
{
    std::ostringstream text;
    telemetry::writeJson(text, snap);
    JsonValue doc;
    Status st = parseJson(text.str(), doc);
    RunSeries series;
    if (st.ok())
        st = seriesFromMetricsJson(doc, series);
    if (!st.ok())
        panic("online doctor: cannot read back its own snapshot: " +
              st.message());
    return analyze(series, DoctorThresholds{});
}

} // namespace

ServeLiveObserver::ServeLiveObserver(
    const serve::ServeConfig &config, LiveObserverOptions options)
    : config_(config), options_(std::move(options)),
      window_(static_cast<std::uint32_t>(config.tenants.size()),
              telemetry::WindowConfig{
                  .capacity = options_.windowCapacity,
                  .missPenalty = DoctorThresholds{}.serveMissPenalty}),
      history_(std::max<std::size_t>(1, config.recorderCapacity))
{
    // The copied config is data only; the engine's hook pointers
    // must not dangle into a previous run.
    config_.observer = nullptr;
    config_.stopFlag = nullptr;
}

void
ServeLiveObserver::onIntervalClosed(
    const telemetry::IntervalSample &sample,
    std::span<const std::uint64_t> /*evictions*/,
    const serve::ServeLiveState &state)
{
    window_.push(sample);
    history_.record(sample);
    last_ = state;
}

void
ServeLiveObserver::onRoundEnd(const serve::ServeLiveState &state)
{
    last_ = state;
    const std::uint64_t every = options_.metricsEvery;
    if (every > 0 && state.rounds > 0 && state.rounds % every == 0) {
        Status st = flush();
        if (exportStatus_.ok() && !st)
            exportStatus_ = st;
    }
}

void
ServeLiveObserver::onRunEnd(const serve::ServeLiveState &state)
{
    last_ = state;
    ended_ = true;
}

Status
ServeLiveObserver::flush() const
{
    if (options_.metricsJsonPath.empty() &&
        options_.metricsPromPath.empty())
        return Status();
    const telemetry::MetricsSnapshot snap = snapshot();
    if (!options_.metricsJsonPath.empty()) {
        std::ostringstream os;
        telemetry::writeJson(os, snap);
        os << "\n";
        Status st = writeFileAtomic(options_.metricsJsonPath, os.str());
        if (!st)
            return st;
    }
    if (!options_.metricsPromPath.empty()) {
        std::ostringstream os;
        telemetry::writePrometheus(os, snap);
        Status st = writeFileAtomic(options_.metricsPromPath, os.str());
        if (!st)
            return st;
    }
    return Status();
}

Status
ServeLiveObserver::flushFinal() const
{
    if (Status st = flush(); !st)
        return st;
    return exportStatus_;
}

telemetry::MetricsSnapshot
ServeLiveObserver::snapshot() const
{
    telemetry::MetricsSnapshot snap = ungraded();
    if (!options_.onlineDoctor)
        return snap;
    const Verdict verdict = gradeText(snap);
    snap.doctorOverall = findingStatusName(verdict.overall);
    for (const Finding &f : verdict.findings) {
        telemetry::DoctorFindingLine line;
        line.check = f.check;
        line.status = findingStatusName(f.status);
        line.value = f.value;
        line.threshold = f.threshold;
        line.hasValue = f.hasValue;
        line.detail = f.detail;
        snap.doctorFindings.push_back(std::move(line));
    }
    return snap;
}

Verdict
ServeLiveObserver::grade() const
{
    return gradeText(ungraded());
}

telemetry::MetricsSnapshot
ServeLiveObserver::ungraded() const
{
    telemetry::MetricsSnapshot snap;
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
    snap.metrics = last_.metrics.get();
    return snap;
}

} // namespace prism::analysis
