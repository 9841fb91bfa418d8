/**
 * @file
 * The serve observer's snapshot renderers: the prism-metrics-v1 JSON
 * document and the same snapshot as Prometheus text exposition,
 * written straight from ServeLiveObserver's own state
 * (online_doctor.hh).
 *
 * Where each part comes from:
 *   - run, policy and capacity: the observer's ServeConfig copy (the
 *     run is "serve/" plus the canonical PriSM scheme name);
 *   - round, ops, intervals, totals, tenants, telemetry and metrics:
 *     the last ServeLiveState. A tenant's hit ratio (0 before its
 *     first access), occupancy (bytes over capacity), T_i and E_i
 *     (read by tenant index) and SLO floor (from the config) are
 *     derived where they are written. The metrics section is the
 *     engine's registry, whose ".wall_ns" counters never render;
 *   - window: the sliding window's rows and per-tenant stats;
 *   - history: the history recorder, once the run has ended;
 *   - doctor: the verdict, when one is embedded.
 *
 * The window and history sections are IntervalSample rows in an
 * IntervalRecorder, written by one routine ("pushed" is the
 * recorder's recorded()). Rendering walks fixed key orders and
 * sorted metric names through JsonWriter, so the same round of the
 * same run produces byte-identical text at any --threads value
 * (docs/OBSERVABILITY.md, "Live metrics & online doctor").
 */

#include <cctype>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "analysis/online_doctor.hh"
#include "analysis/series.hh"
#include "common/json.hh"
#include "telemetry/metrics_registry.hh"

namespace prism::analysis
{

namespace
{

using telemetry::IntervalRecorder;
using telemetry::IntervalSample;
using telemetry::TenantWindowStats;

/** @p v[i], or 0 past its end. */
double
at(const std::vector<double> &v, std::size_t i)
{
    return i < v.size() ? v[i] : 0.0;
}

/** Cumulative hit ratio; 0 before the tenant's first access. */
double
hitRatio(const serve::TenantTotals &t)
{
    const std::uint64_t accesses = t.hits + t.misses;
    return accesses ? static_cast<double>(t.hits) /
                          static_cast<double>(accesses)
                    : 0.0;
}

void
writeTenantWindowStats(JsonWriter &w, const TenantWindowStats &s)
{
    w.beginObject();
    w.kv("intervals", s.intervals);
    w.kv("hits", s.hits);
    w.kv("misses", s.misses);
    w.kv("evictions", s.evictions);
    w.kv("hit_ratio", s.hitRatio);
    w.kv("miss_rate", s.missRate);
    w.kv("fair_slowdown", s.slowdown);
    w.kv("churn", s.churn);
    w.kv("hit_ratio_p50", s.hitRatioP50);
    w.kv("hit_ratio_p90", s.hitRatioP90);
    w.kv("slowdown_p50", s.slowdownP50);
    w.kv("slowdown_p90", s.slowdownP90);
    w.kv("ewma_miss_rate", s.ewmaMissRate);
    w.kv("miss_rate_drift", s.missRateDrift);
    w.kv("ewma_slowdown", s.ewmaSlowdown);
    w.kv("slowdown_drift", s.slowdownDrift);
    w.endObject();
}

/** The window and history sections: interval rows, as recorded. */
void
writeRows(JsonWriter &w, const IntervalRecorder &rows)
{
    w.beginObject();
    w.kv("capacity", static_cast<std::uint64_t>(rows.capacity()));
    w.kv("size", static_cast<std::uint64_t>(rows.size()));
    w.kv("pushed", rows.recorded());
    std::vector<std::uint64_t> intervals;
    intervals.reserve(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
        intervals.push_back(rows.sample(i).interval);
    w.kv("interval", std::span<const std::uint64_t>(intervals));
    const auto series = [&](std::string_view key, auto field) {
        w.key(key);
        w.beginArray();
        for (std::size_t i = 0; i < rows.size(); ++i) {
            w.beginArray();
            for (const auto x : rows.sample(i).*field)
                w.value(x);
            w.endArray();
        }
        w.endArray();
    };
    series("occupancy", &IntervalSample::occupancy);
    series("target", &IntervalSample::target);
    series("ev_prob", &IntervalSample::evProb);
    series("hits", &IntervalSample::hits);
    series("misses", &IntervalSample::misses);
    series("evictions", &IntervalSample::evictions);
    w.endObject();
}

// --- Prometheus text exposition ---------------------------------
//
// Label values come from fixed vocabularies (scheme, policy, check
// and status names), none of which holds a character the format
// escapes.

/** Metric-name charset is [a-zA-Z0-9_:]; everything else -> '_'. */
std::string
promName(std::string_view name)
{
    std::string out;
    out.reserve(name.size());
    for (const char c : name) {
        const bool ok =
            std::isalnum(static_cast<unsigned char>(c)) ||
            c == '_' || c == ':';
        out.push_back(ok ? c : '_');
    }
    return out;
}

std::string
promValue(double v)
{
    return JsonWriter::formatDouble(v);
}

std::string
promValue(std::uint64_t v)
{
    return std::to_string(v);
}

void
promHeader(std::ostream &os, std::string_view name,
           std::string_view type, std::string_view help)
{
    os << "# HELP " << name << " " << help << "\n";
    os << "# TYPE " << name << " " << type << "\n";
}

/** The run's identity: "serve/" plus the canonical scheme name. */
std::string
runName(char policy)
{
    return "serve/" + canonicalSchemeName(std::string("PriSM-") +
                                          serve::policyName(policy));
}

} // namespace

void
ServeLiveObserver::renderJson(std::ostream &os,
                              const std::optional<Verdict> &verdict) const
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("schema", "prism-metrics-v1");
    w.kv("source", "serve");
    w.kv("run", runName(config_.policy));
    w.kv("policy", serve::policyName(config_.policy));
    w.kv("round", last_.rounds);
    w.kv("ops", last_.ops);
    w.kv("intervals", last_.intervals);

    w.key("totals");
    w.beginObject();
    w.kv("evictions", last_.evictions);
    w.kv("victimless_evictions", last_.victimlessEvictions);
    w.kv("recomputes", last_.recomputes);
    w.kv("eq1_fallbacks", last_.eq1Fallbacks);
    w.kv("clamped_eq1_inputs", last_.clampedEq1Inputs);
    w.kv("occupancy_bytes", last_.occupancyBytes);
    w.kv("capacity_bytes", config_.capacityBytes);
    w.kv("objects", last_.objects);
    w.kv("rehashes", last_.rehashes);
    w.endObject();

    w.key("tenants");
    w.beginArray();
    for (std::size_t t = 0; t < last_.tenants.size(); ++t) {
        const serve::TenantTotals &tt = last_.tenants[t];
        w.beginObject();
        w.kv("tenant", static_cast<std::uint64_t>(t));
        w.kv("hits", tt.hits);
        w.kv("misses", tt.misses);
        w.kv("shadow_hits", tt.shadowHits);
        w.kv("evictions", tt.evictions);
        w.kv("occupancy_bytes", tt.occupancyBytes);
        w.kv("hit_ratio", hitRatio(tt));
        w.kv("occupancy",
             config_.capacityBytes
                 ? static_cast<double>(tt.occupancyBytes) /
                       static_cast<double>(config_.capacityBytes)
                 : 0.0);
        w.kv("target", at(last_.targets, t));
        w.kv("ev_prob", at(last_.evProbs, t));
        w.kv("slo_hit", t < config_.tenants.size()
                            ? config_.tenants[t].sloHit
                            : 0.0);
        w.key("window");
        writeTenantWindowStats(
            w, window_.stats(static_cast<std::uint32_t>(t)));
        w.endObject();
    }
    w.endArray();

    w.key("window");
    writeRows(w, window_.rows());
    if (ended_) {
        w.key("history");
        writeRows(w, history_);
    }

    if (verdict) {
        w.key("doctor");
        w.beginObject();
        w.kv("overall", findingStatusName(verdict->overall));
        writeFindingsJson(w, verdict->findings);
        w.endObject();
    }

    w.key("telemetry");
    w.beginObject();
    w.kv("dropped_samples", last_.droppedSamples);
    w.kv("dropped_events", last_.droppedEvents);
    w.endObject();

    if (last_.metrics) {
        w.key("metrics");
        last_.metrics->writeJson(w);
    }

    w.endObject();
}

void
ServeLiveObserver::renderPrometheus(
    std::ostream &os, const std::optional<Verdict> &verdict) const
{
    promHeader(os, "prism_info", "gauge", "Run identity labels.");
    os << "prism_info{source=\"serve\",run=\"" << runName(config_.policy)
       << "\",policy=\"" << serve::policyName(config_.policy)
       << "\"} 1\n";

    promHeader(os, "prism_round", "counter",
               "Rounds completed (the snapshot key).");
    os << "prism_round " << last_.rounds << "\n";
    promHeader(os, "prism_ops_total", "counter",
               "Operations applied.");
    os << "prism_ops_total " << last_.ops << "\n";
    promHeader(os, "prism_intervals_total", "counter",
               "Allocation intervals closed.");
    os << "prism_intervals_total " << last_.intervals << "\n";

    promHeader(os, "prism_evictions_total", "counter",
               "Objects evicted across tenants.");
    os << "prism_evictions_total " << last_.evictions << "\n";
    promHeader(os, "prism_occupancy_bytes", "gauge",
               "Bytes resident in the store.");
    os << "prism_occupancy_bytes " << last_.occupancyBytes << "\n";
    promHeader(os, "prism_capacity_bytes", "gauge",
               "Configured store capacity.");
    os << "prism_capacity_bytes " << config_.capacityBytes << "\n";

    // One line per tenant; `get` maps a tenant index to its value.
    const std::vector<serve::TenantTotals> &tenants = last_.tenants;
    const auto perTenant = [&](std::string_view name,
                               std::string_view type,
                               std::string_view help, auto get) {
        promHeader(os, name, type, help);
        for (std::size_t t = 0; t < tenants.size(); ++t)
            os << name << "{tenant=\"" << t << "\"} "
               << promValue(get(t)) << "\n";
    };
    perTenant("prism_tenant_hits_total", "counter", "Hits per tenant.",
              [&](std::size_t t) { return tenants[t].hits; });
    perTenant("prism_tenant_misses_total", "counter",
              "Misses per tenant.",
              [&](std::size_t t) { return tenants[t].misses; });
    perTenant("prism_tenant_evictions_total", "counter",
              "Evictions charged per tenant.",
              [&](std::size_t t) { return tenants[t].evictions; });
    perTenant("prism_tenant_occupancy_bytes", "gauge",
              "Bytes resident per tenant.",
              [&](std::size_t t) { return tenants[t].occupancyBytes; });
    perTenant("prism_tenant_hit_ratio", "gauge",
              "Cumulative hit ratio per tenant.",
              [&](std::size_t t) { return hitRatio(tenants[t]); });
    perTenant("prism_tenant_target", "gauge",
              "Occupancy target T_i in effect.",
              [&](std::size_t t) { return at(last_.targets, t); });
    perTenant("prism_tenant_ev_prob", "gauge",
              "Eviction probability E_i in effect.",
              [&](std::size_t t) { return at(last_.evProbs, t); });

    std::vector<TenantWindowStats> ws;
    for (std::size_t t = 0; t < tenants.size(); ++t)
        ws.push_back(window_.stats(static_cast<std::uint32_t>(t)));
    perTenant("prism_tenant_window_hit_ratio", "gauge",
              "Hit ratio over the sliding window.",
              [&](std::size_t t) { return ws[t].hitRatio; });
    perTenant("prism_tenant_window_fair_slowdown", "gauge",
              "Fair slowdown over the sliding window.",
              [&](std::size_t t) { return ws[t].slowdown; });
    perTenant("prism_tenant_window_churn", "gauge",
              "Mean |dE_i| between window intervals.",
              [&](std::size_t t) { return ws[t].churn; });
    perTenant("prism_tenant_miss_rate_drift", "gauge",
              "Relative EWMA miss-rate drift.",
              [&](std::size_t t) { return ws[t].missRateDrift; });
    perTenant("prism_tenant_slowdown_drift", "gauge",
              "Relative EWMA slowdown drift.",
              [&](std::size_t t) { return ws[t].slowdownDrift; });

    if (verdict) {
        promHeader(os, "prism_doctor_overall", "gauge",
                   "Online doctor overall verdict (label).");
        os << "prism_doctor_overall{status=\""
           << findingStatusName(verdict->overall) << "\"} 1\n";
        promHeader(os, "prism_doctor_finding", "gauge",
                   "Per-check online doctor statuses.");
        for (const Finding &f : verdict->findings)
            os << "prism_doctor_finding{check=\"" << f.check
               << "\",status=\"" << findingStatusName(f.status)
               << "\"} 1\n";
    }

    promHeader(os, "prism_telemetry_dropped_samples", "counter",
               "Interval samples dropped by the recorder ring.");
    os << "prism_telemetry_dropped_samples " << last_.droppedSamples
       << "\n";
    promHeader(os, "prism_telemetry_dropped_events", "counter",
               "Events dropped by the recorder ring.");
    os << "prism_telemetry_dropped_events " << last_.droppedEvents
       << "\n";

    if (!last_.metrics)
        return;
    last_.metrics->visit(
        [&](const std::string &name, const telemetry::Counter &c) {
            const std::string n = "prism_metric_" + promName(name);
            promHeader(os, n, "counter", "Registry counter.");
            os << n << " " << c.value() << "\n";
        },
        [&](const std::string &name, const telemetry::Gauge &g) {
            const std::string n = "prism_metric_" + promName(name);
            promHeader(os, n, "gauge", "Registry gauge.");
            os << n << " " << promValue(g.value()) << "\n";
        },
        [&](const std::string &name, const telemetry::Histogram &h) {
            const std::string n = "prism_metric_" + promName(name);
            promHeader(os, n, "histogram", "Registry histogram.");
            std::uint64_t cumulative = 0;
            for (std::size_t i = 0; i < h.bounds().size(); ++i) {
                cumulative += h.bucketCount(i);
                os << n << "_bucket{le=\"" << promValue(h.bounds()[i])
                   << "\"} " << cumulative << "\n";
            }
            os << n << "_bucket{le=\"+Inf\"} " << h.count() << "\n";
            os << n << "_sum " << promValue(h.sum()) << "\n";
            os << n << "_count " << h.count() << "\n";
        });
}

} // namespace prism::analysis
