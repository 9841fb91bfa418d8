#include "telemetry/exporter.hh"

#include <cctype>
#include <sstream>

#include "common/atomic_file.hh"
#include "common/json.hh"
#include "telemetry/metrics_registry.hh"

namespace prism::telemetry
{

namespace
{

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

/** Escape a label value: backslash, quote and newline. */
std::string
promLabel(std::string_view v)
{
    std::string out;
    out.reserve(v.size());
    for (const char c : v) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '"')
            out += "\\\"";
        else if (c == '\n')
            out += "\\n";
        else
            out.push_back(c);
    }
    return out;
}

std::string
promDouble(double v)
{
    return JsonWriter::formatDouble(v);
}

void
promHeader(std::ostream &os, std::string_view name,
           std::string_view type, std::string_view help)
{
    os << "# HELP " << name << " " << help << "\n";
    os << "# TYPE " << name << " " << type << "\n";
}

} // namespace

Status
MetricsExporter::flush(const MetricsSnapshot &snap)
{
    if (!config_.jsonPath.empty()) {
        std::ostringstream os;
        writeJson(os, snap);
        os << "\n";
        Status st = writeFileAtomic(config_.jsonPath, os.str());
        if (!st)
            return st;
    }
    if (!config_.promPath.empty()) {
        std::ostringstream os;
        writePrometheus(os, snap);
        Status st = writeFileAtomic(config_.promPath, os.str());
        if (!st)
            return st;
    }
    return Status();
}

void
MetricsExporter::writeJson(std::ostream &os,
                           const MetricsSnapshot &snap)
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("schema", "prism-metrics-v1");
    w.kv("source", snap.source);
    w.kv("run", snap.run);
    if (!snap.policy.empty())
        w.kv("policy", snap.policy);
    w.kv("round", snap.round);
    w.kv("ops", snap.ops);
    w.kv("intervals", snap.intervals);

    if (snap.jobsTotal > 0) {
        w.key("sweep");
        w.beginObject();
        w.kv("jobs", snap.jobsTotal);
        w.kv("completed", snap.jobsCompleted);
        w.endObject();
    }

    if (!snap.tenants.empty()) {
        w.key("totals");
        w.beginObject();
        w.kv("evictions", snap.evictions);
        w.kv("victimless_evictions", snap.victimlessEvictions);
        w.kv("recomputes", snap.recomputes);
        w.kv("eq1_fallbacks", snap.eq1Fallbacks);
        w.kv("clamped_eq1_inputs", snap.clampedEq1Inputs);
        w.kv("occupancy_bytes", snap.occupancyBytes);
        w.kv("capacity_bytes", snap.capacityBytes);
        w.kv("objects", snap.objects);
        w.kv("rehashes", snap.rehashes);
        w.endObject();

        w.key("tenants");
        w.beginArray();
        for (std::size_t t = 0; t < snap.tenants.size(); ++t) {
            const TenantLiveState &ts = snap.tenants[t];
            w.beginObject();
            w.kv("tenant", static_cast<std::uint64_t>(t));
            w.kv("hits", ts.hits);
            w.kv("misses", ts.misses);
            w.kv("shadow_hits", ts.shadowHits);
            w.kv("evictions", ts.evictions);
            w.kv("occupancy_bytes", ts.occupancyBytes);
            w.kv("hit_ratio", ts.hitRatio);
            w.kv("occupancy", ts.occupancy);
            w.kv("target", ts.target);
            w.kv("ev_prob", ts.evProb);
            w.kv("slo_hit", ts.sloHit);
            if (snap.window) {
                w.key("window");
                writeTenantWindowStats(
                    w, snap.window->stats(
                           static_cast<std::uint32_t>(t)));
            }
            w.endObject();
        }
        w.endArray();
    }

    if (snap.window) {
        w.key("window");
        writeRows(w, snap.window->rows());
    }
    if (snap.history) {
        w.key("history");
        writeRows(w, *snap.history);
    }

    if (!snap.doctorOverall.empty()) {
        w.key("doctor");
        w.beginObject();
        w.kv("overall", snap.doctorOverall);
        w.key("findings");
        w.beginArray();
        for (const DoctorFindingLine &f : snap.doctorFindings) {
            w.beginObject();
            w.kv("check", f.check);
            w.kv("status", f.status);
            if (f.hasValue) {
                w.kv("value", f.value);
                w.kv("threshold", f.threshold);
            }
            w.kv("detail", f.detail);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }

    w.key("telemetry");
    w.beginObject();
    w.kv("dropped_samples", snap.droppedSamples);
    w.kv("dropped_events", snap.droppedEvents);
    w.endObject();

    if (snap.metrics) {
        w.key("metrics");
        snap.metrics->writeJson(w, snap.includeWallMetrics);
    }

    w.endObject();
}

void
MetricsExporter::writePrometheus(std::ostream &os,
                                 const MetricsSnapshot &snap)
{
    promHeader(os, "prism_info", "gauge", "Run identity labels.");
    os << "prism_info{source=\"" << promLabel(snap.source)
       << "\",run=\"" << promLabel(snap.run) << "\"";
    if (!snap.policy.empty())
        os << ",policy=\"" << promLabel(snap.policy) << "\"";
    os << "} 1\n";

    promHeader(os, "prism_round", "counter",
               "Rounds completed (the snapshot key).");
    os << "prism_round " << snap.round << "\n";
    promHeader(os, "prism_ops_total", "counter",
               "Operations applied.");
    os << "prism_ops_total " << snap.ops << "\n";
    promHeader(os, "prism_intervals_total", "counter",
               "Allocation intervals closed.");
    os << "prism_intervals_total " << snap.intervals << "\n";

    if (snap.jobsTotal > 0) {
        promHeader(os, "prism_sweep_jobs", "gauge",
                   "Jobs in the sweep.");
        os << "prism_sweep_jobs " << snap.jobsTotal << "\n";
        promHeader(os, "prism_sweep_jobs_completed", "counter",
                   "Jobs completed so far.");
        os << "prism_sweep_jobs_completed " << snap.jobsCompleted
           << "\n";
    }

    if (!snap.tenants.empty()) {
        promHeader(os, "prism_evictions_total", "counter",
                   "Objects evicted across tenants.");
        os << "prism_evictions_total " << snap.evictions << "\n";
        promHeader(os, "prism_occupancy_bytes", "gauge",
                   "Bytes resident in the store.");
        os << "prism_occupancy_bytes " << snap.occupancyBytes
           << "\n";
        promHeader(os, "prism_capacity_bytes", "gauge",
                   "Configured store capacity.");
        os << "prism_capacity_bytes " << snap.capacityBytes
           << "\n";

        const auto perTenantU64 =
            [&](std::string_view name, std::string_view type,
                std::string_view help, auto get) {
                promHeader(os, name, type, help);
                for (std::size_t t = 0; t < snap.tenants.size();
                     ++t)
                    os << name << "{tenant=\"" << t << "\"} "
                       << get(snap.tenants[t]) << "\n";
            };
        const auto perTenantD =
            [&](std::string_view name, std::string_view help,
                auto get) {
                promHeader(os, name, "gauge", help);
                for (std::size_t t = 0; t < snap.tenants.size();
                     ++t)
                    os << name << "{tenant=\"" << t << "\"} "
                       << promDouble(get(snap.tenants[t])) << "\n";
            };
        perTenantU64("prism_tenant_hits_total", "counter",
                     "Hits per tenant.",
                     [](const TenantLiveState &t) {
                         return t.hits;
                     });
        perTenantU64("prism_tenant_misses_total", "counter",
                     "Misses per tenant.",
                     [](const TenantLiveState &t) {
                         return t.misses;
                     });
        perTenantU64("prism_tenant_evictions_total", "counter",
                     "Evictions charged per tenant.",
                     [](const TenantLiveState &t) {
                         return t.evictions;
                     });
        perTenantU64("prism_tenant_occupancy_bytes", "gauge",
                     "Bytes resident per tenant.",
                     [](const TenantLiveState &t) {
                         return t.occupancyBytes;
                     });
        perTenantD("prism_tenant_hit_ratio",
                   "Cumulative hit ratio per tenant.",
                   [](const TenantLiveState &t) {
                       return t.hitRatio;
                   });
        perTenantD("prism_tenant_target",
                   "Occupancy target T_i in effect.",
                   [](const TenantLiveState &t) {
                       return t.target;
                   });
        perTenantD("prism_tenant_ev_prob",
                   "Eviction probability E_i in effect.",
                   [](const TenantLiveState &t) {
                       return t.evProb;
                   });

        if (snap.window) {
            const auto windowD = [&](std::string_view name,
                                     std::string_view help,
                                     auto get) {
                promHeader(os, name, "gauge", help);
                for (std::size_t t = 0; t < snap.tenants.size();
                     ++t) {
                    const TenantWindowStats ws =
                        snap.window->stats(
                            static_cast<std::uint32_t>(t));
                    os << name << "{tenant=\"" << t << "\"} "
                       << promDouble(get(ws)) << "\n";
                }
            };
            windowD("prism_tenant_window_hit_ratio",
                    "Hit ratio over the sliding window.",
                    [](const TenantWindowStats &s) {
                        return s.hitRatio;
                    });
            windowD("prism_tenant_window_fair_slowdown",
                    "Fair slowdown over the sliding window.",
                    [](const TenantWindowStats &s) {
                        return s.slowdown;
                    });
            windowD("prism_tenant_window_churn",
                    "Mean |dE_i| between window intervals.",
                    [](const TenantWindowStats &s) {
                        return s.churn;
                    });
            windowD("prism_tenant_miss_rate_drift",
                    "Relative EWMA miss-rate drift.",
                    [](const TenantWindowStats &s) {
                        return s.missRateDrift;
                    });
            windowD("prism_tenant_slowdown_drift",
                    "Relative EWMA slowdown drift.",
                    [](const TenantWindowStats &s) {
                        return s.slowdownDrift;
                    });
        }
    }

    if (!snap.doctorOverall.empty()) {
        promHeader(os, "prism_doctor_overall", "gauge",
                   "Online doctor overall verdict (label).");
        os << "prism_doctor_overall{status=\""
           << promLabel(snap.doctorOverall) << "\"} 1\n";
        promHeader(os, "prism_doctor_finding", "gauge",
                   "Per-check online doctor statuses.");
        for (const DoctorFindingLine &f : snap.doctorFindings)
            os << "prism_doctor_finding{check=\""
               << promLabel(f.check) << "\",status=\""
               << promLabel(f.status) << "\"} 1\n";
    }

    promHeader(os, "prism_telemetry_dropped_samples", "counter",
               "Interval samples dropped by the recorder ring.");
    os << "prism_telemetry_dropped_samples " << snap.droppedSamples
       << "\n";
    promHeader(os, "prism_telemetry_dropped_events", "counter",
               "Events dropped by the recorder ring.");
    os << "prism_telemetry_dropped_events " << snap.droppedEvents
       << "\n";

    if (snap.metrics) {
        snap.metrics->visit(
            [&](const std::string &name, const Counter &c) {
                const std::string n =
                    "prism_metric_" + promName(name);
                promHeader(os, n, "counter",
                           "Registry counter.");
                os << n << " " << c.value() << "\n";
            },
            [&](const std::string &name, const Gauge &g) {
                const std::string n =
                    "prism_metric_" + promName(name);
                promHeader(os, n, "gauge", "Registry gauge.");
                os << n << " " << promDouble(g.value()) << "\n";
            },
            [&](const std::string &name, const Histogram &h) {
                const std::string n =
                    "prism_metric_" + promName(name);
                promHeader(os, n, "histogram",
                           "Registry histogram.");
                std::uint64_t cumulative = 0;
                for (std::size_t i = 0; i < h.bounds().size();
                     ++i) {
                    cumulative += h.bucketCount(i);
                    os << n << "_bucket{le=\""
                       << promDouble(h.bounds()[i]) << "\"} "
                       << cumulative << "\n";
                }
                os << n << "_bucket{le=\"+Inf\"} " << h.count()
                   << "\n";
                os << n << "_sum " << promDouble(h.sum()) << "\n";
                os << n << "_count " << h.count() << "\n";
            },
            snap.includeWallMetrics);
    }
}

} // namespace prism::telemetry
