#include "analysis/series.hh"

#include <algorithm>
#include <map>

#include "common/parse.hh"
#include "exec/checkpoint.hh"

namespace prism::analysis
{

namespace
{

/** Sum a counter over instant events of @p kind. */
std::uint64_t
countEvents(const telemetry::IntervalRecorder &rec,
            telemetry::EventKind kind)
{
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < rec.eventCount(); ++i)
        if (rec.event(i).kind == kind)
            ++n;
    return n;
}

} // namespace

RunSeries
seriesFromRecorder(const telemetry::IntervalRecorder &rec,
                   const std::string &name)
{
    RunSeries s;
    s.name = name;
    s.hasSeries = rec.size() > 0;
    for (std::size_t i = 0; i < rec.size(); ++i) {
        const telemetry::IntervalSample &sample = rec.sample(i);
        s.interval.push_back(sample.interval);
        s.occupancy.push_back(sample.occupancy);
        if (!sample.target.empty()) {
            s.prism = true;
            s.target.push_back(sample.target);
            s.evProb.push_back(sample.evProb);
        }
        s.cores = std::max<std::uint32_t>(
            s.cores,
            static_cast<std::uint32_t>(sample.occupancy.size()));
    }
    s.droppedSamples = rec.droppedSamples();
    s.droppedEvents = rec.droppedEvents();

    // Event-derived counters; superseded by attachRunResult when a
    // RunResult is available (events can be ring-dropped).
    s.hasCounters = true;
    s.degradedIntervals =
        countEvents(rec, telemetry::EventKind::DegradedInterval);
    s.droppedRecomputes =
        countEvents(rec, telemetry::EventKind::DroppedRecompute);
    s.distributionRepairs =
        countEvents(rec, telemetry::EventKind::DistributionRepair);
    s.fallbackEntries =
        countEvents(rec, telemetry::EventKind::FallbackEntered);
    s.ownershipRepairs =
        countEvents(rec, telemetry::EventKind::OwnershipRepair);
    if (!s.interval.empty())
        s.intervals = s.interval.back();
    return s;
}

void
attachRunResult(RunSeries &s, const RunResult &r)
{
    s.scheme = r.scheme;
    s.cores = static_cast<std::uint32_t>(r.ipc.size());
    s.plane = r.plane.empty() ? "sim" : r.plane;
    if (!r.plane.empty()) {
        s.wayQuantError = r.wayQuantError;
        s.hasWayQuant = true;
    }
    s.hasCounters = true;
    s.intervals = r.intervals;
    s.recomputes = r.recomputes;
    s.degradedIntervals = r.degradedIntervals;
    s.droppedRecomputes = r.droppedRecomputes;
    s.fallbackEntries = r.fallbackEntries;
    s.invariantViolations = r.invariantViolations;
    s.ownershipRepairs = r.ownershipRepairs;
    s.faultsInjected = r.faultsInjected;
    s.clampedEq1Inputs = r.clampedEq1Inputs;
    s.hasPerf =
        !r.ipc.empty() && r.ipc.size() == r.ipcStandalone.size();
    s.ipc = r.ipc;
    s.ipcStandalone = r.ipcStandalone;
}

std::string
canonicalSchemeName(const std::string &name)
{
    if (name == "PriSM-HitMax")
        return "PriSM-H";
    if (name == "PriSM-QoS")
        return "PriSM-Q";
    if (name == "PriSM-Fair")
        return "PriSM-F";
    return name;
}

Status
seriesFromStatsJson(const JsonValue &doc, RunSeries &out)
{
    if (doc.at("schema").asString() != "prism-stats-v1")
        return Status::error(
            "not a prism-stats-v1 document (schema '" +
            doc.at("schema").asString() + "')");

    out = RunSeries();
    out.name = doc.at("workload").asString();
    out.scheme = canonicalSchemeName(doc.at("scheme").asString());
    out.plane = out.scheme == "PriSM-WM" ? "way-mask" : "sim";
    if (out.name.empty())
        out.name = "stats";
    else if (!out.scheme.empty())
        out.name += "/" + out.scheme;

    const JsonValue &system = doc.at("system");
    out.cores = static_cast<std::uint32_t>(
        system.at("cores").asU64());
    out.hasCounters = true;
    out.intervals = system.at("llc").at("intervals").asU64();
    out.invariantViolations =
        system.at("llc").at("invariant_violations").asU64();
    out.ownershipRepairs =
        system.at("llc").at("ownership_repairs").asU64();

    if (const JsonValue *prism = doc.find("prism")) {
        out.recomputes = prism->at("recomputes").asU64();
        out.degradedIntervals =
            prism->at("degraded_intervals").asU64();
        out.droppedRecomputes =
            prism->at("dropped_recomputes").asU64();
        out.clampedEq1Inputs =
            prism->at("clamped_eq1_inputs").asU64();
        out.eq1Fallbacks = prism->at("eq1_fallbacks").asU64();
        out.fallbackEntries = prism->at("fallback_entries").asU64();
        out.invariantViolations +=
            prism->at("invariant_violations").asU64();
        out.faultsInjected = prism->at("faults_injected").asU64();
        if (const JsonValue *err = prism->find("way_quant_error")) {
            out.wayQuantError = err->asDouble();
            out.hasWayQuant = true;
        }
    }
    if (const JsonValue *telemetry = doc.find("telemetry")) {
        out.droppedSamples =
            telemetry->at("dropped_samples").asU64();
        out.droppedEvents = telemetry->at("dropped_events").asU64();
    }
    return Status();
}

namespace
{

/** Per-interval row while reassembling a trace process. */
struct TraceRow
{
    std::vector<double> occupancy;
    std::vector<double> target;
    std::vector<double> evProb;
};

/**
 * The per-core values of a counter event, from its `c<N>` keys. The
 * writer emits dense keys c0..c{n-1}, so an index at or beyond the
 * member count is an input error, not a reason to grow the row.
 */
Status
coreArgs(const JsonValue &args, std::vector<double> &out)
{
    out.assign(args.members().size(), 0.0);
    for (const auto &[key, value] : args.members()) {
        if (key.size() < 2 || key[0] != 'c' ||
            key.find_first_not_of("0123456789", 1) !=
                std::string::npos)
            continue;
        std::uint64_t idx = 0;
        if (!parseU64(std::string_view(key).substr(1), idx) ||
            idx >= out.size())
            return Status::error("counter key '" + key +
                                 "' is out of range (the event has " +
                                 std::to_string(out.size()) +
                                 " members)");
        out[idx] = value.asDouble();
    }
    return Status();
}

} // namespace

Status
seriesFromTraceJson(const JsonValue &doc, std::vector<RunSeries> &out)
{
    const JsonValue &other = doc.at("otherData");
    if (other.at("schema").asString() != "prism-trace-v1")
        return Status::error(
            "not a prism-trace-v1 document (otherData.schema '" +
            other.at("schema").asString() + "')");

    const JsonValue &events = doc.at("traceEvents");
    if (!events.isArray())
        return Status::error("traceEvents missing or not an array");

    std::map<std::uint64_t, std::string> names;
    std::map<std::uint64_t, std::map<std::uint64_t, TraceRow>> rows;
    std::map<std::uint64_t, RunSeries> counters;

    for (const JsonValue &ev : events.elements()) {
        const std::uint64_t pid = ev.at("pid").asU64();
        const std::string &name = ev.at("name").asString();
        const std::string &ph = ev.at("ph").asString();
        if (ph == "M") {
            if (name == "process_name")
                names[pid] = ev.at("args").at("name").asString();
            continue;
        }
        if (ph == "C") {
            const std::uint64_t interval = ev.at("ts").asU64() / 1000;
            TraceRow &row = rows[pid][interval];
            Status st;
            if (name == "occupancy")
                st = coreArgs(ev.at("args"), row.occupancy);
            else if (name == "target")
                st = coreArgs(ev.at("args"), row.target);
            else if (name == "ev_prob")
                st = coreArgs(ev.at("args"), row.evProb);
            if (!st.ok())
                return st;
            continue;
        }
        if (ph == "i") {
            RunSeries &c = counters[pid];
            if (name == "degraded_interval")
                ++c.degradedIntervals;
            else if (name == "dropped_recompute")
                ++c.droppedRecomputes;
            else if (name == "distribution_repair")
                ++c.distributionRepairs;
            else if (name == "fallback_entered")
                ++c.fallbackEntries;
            else if (name == "ownership_repair")
                ++c.ownershipRepairs;
        }
    }

    out.clear();
    for (const auto &[pid, by_interval] : rows) {
        RunSeries s = counters.count(pid) ? counters[pid]
                                          : RunSeries();
        const auto name_it = names.find(pid);
        s.name = name_it != names.end()
                     ? name_it->second
                     : "pid" + std::to_string(pid);
        // "workload/scheme" process names carry the scheme.
        if (const auto slash = s.name.rfind('/');
            slash != std::string::npos)
            s.scheme =
                canonicalSchemeName(s.name.substr(slash + 1));
        s.plane = s.scheme == "PriSM-WM" ? "way-mask" : "sim";
        s.hasSeries = true;
        s.hasCounters = true;
        for (const auto &[interval, row] : by_interval) {
            s.interval.push_back(interval);
            s.occupancy.push_back(row.occupancy);
            s.cores = std::max<std::uint32_t>(
                s.cores,
                static_cast<std::uint32_t>(row.occupancy.size()));
            if (!row.target.empty()) {
                s.prism = true;
                s.target.push_back(row.target);
                s.evProb.push_back(row.evProb);
            }
        }
        if (!s.interval.empty())
            s.intervals = s.interval.back();
        out.push_back(std::move(s));
    }
    if (out.empty())
        return Status::error("trace contains no counter samples");

    // Drop totals are summed over jobs at export time; pin them to
    // the first job so a truncated trace still raises a finding.
    out.front().droppedSamples = other.at("dropped_samples").asU64();
    out.front().droppedEvents = other.at("dropped_events").asU64();
    return Status();
}

Status
seriesFromBenchJob(const JsonValue &job, RunSeries &out)
{
    RunResult r;
    if (const Status st = readRunResultFields(job.at("result"), r);
        !st.ok())
        return st;
    out = RunSeries();
    attachRunResult(out, r);
    out.name = job.at("id").asString();
    if (const JsonValue *qos =
            job.at("config").find("qos_target_frac"))
        out.qosTargetFrac = qos->asDouble();
    return Status();
}

Status
seriesFromMetricsJson(const JsonValue &doc, RunSeries &out)
{
    if (doc.at("schema").asString() != "prism-metrics-v1")
        return Status::error(
            "not a prism-metrics-v1 document (schema '" +
            doc.at("schema").asString() + "')");

    out = RunSeries();
    const std::string source = doc.at("source").asString();

    out.hasCounters = true;
    out.intervals = doc.at("intervals").asU64();
    if (const JsonValue *totals = doc.find("totals")) {
        out.recomputes = totals->at("recomputes").asU64();
        out.eq1Fallbacks = totals->at("eq1_fallbacks").asU64();
        out.clampedEq1Inputs =
            totals->at("clamped_eq1_inputs").asU64();
        out.serveVictimless =
            totals->at("victimless_evictions").asU64();
    }
    if (const JsonValue *telemetry = doc.find("telemetry")) {
        out.droppedSamples =
            telemetry->at("dropped_samples").asU64();
        out.droppedEvents = telemetry->at("dropped_events").asU64();
    }

    if (source != "serve") {
        // Bench-sourced snapshot: sweep progress + registry only.
        out.name = "metrics/" + doc.at("run").asString();
        return Status();
    }

    // Serve-sourced snapshot: tenants in the per-core slots, series
    // rows from the whole-run history when the snapshot was taken
    // after the run ended and from the sliding window otherwise —
    // the rows the online doctor graded, so the offline doctor
    // reproduces the embedded verdict.
    out.serve = true;
    out.plane = "store";
    out.scheme =
        canonicalSchemeName("PriSM-" + doc.at("policy").asString());
    out.name = "serve/" + out.scheme;

    for (const JsonValue &tenant : doc.at("tenants").elements()) {
        out.serveHitRatio.push_back(
            tenant.at("hit_ratio").asDouble());
        out.serveSloFloor.push_back(tenant.at("slo_hit").asDouble());
        if (const JsonValue *window = tenant.find("window")) {
            out.hasDrift = true;
            out.driftMissRate.push_back(
                window->at("miss_rate_drift").asDouble());
            out.driftSlowdown.push_back(
                window->at("slowdown_drift").asDouble());
        }
    }
    out.cores = static_cast<std::uint32_t>(
        out.serveHitRatio.size());

    const JsonValue *history = doc.find("history");
    const JsonValue &section = history ? *history : doc.at("window");
    for (const JsonValue &v : section.at("interval").elements())
        out.interval.push_back(v.asU64());
    const auto rows = [&section](const char *key) {
        std::vector<std::vector<double>> out_rows;
        for (const JsonValue &row : section.at(key).elements()) {
            std::vector<double> values;
            for (const JsonValue &v : row.elements())
                values.push_back(v.asDouble());
            out_rows.push_back(std::move(values));
        }
        return out_rows;
    };
    out.occupancy = rows("occupancy");
    out.target = rows("target");
    out.evProb = rows("ev_prob");
    out.serveEvictions = rows("evictions");
    out.hasSeries = !out.interval.empty();
    out.prism = !out.target.empty();
    return Status();
}

bool
execSeriesFromBenchDoc(const JsonValue &doc, ExecSeries &out)
{
    const JsonValue *exec = doc.find("exec");
    if (!exec || !exec->isObject())
        return false;

    ExecSeries s;
    s.jobs = doc.at("jobs").elements().size();
    s.completed = exec->at("completed").asU64();
    s.recovered = exec->at("recovered").asU64();
    s.quarantined = exec->at("quarantined").asU64();
    s.skipped = exec->at("skipped").asU64();
    s.retries = exec->at("retries").asU64();
    s.timeouts = exec->at("timeouts").asU64();
    for (const JsonValue &job : doc.at("jobs").elements())
        if (job.at("error").isObject())
            s.failedIds.push_back(job.at("id").asString());
    out = std::move(s);
    return true;
}

} // namespace prism::analysis
