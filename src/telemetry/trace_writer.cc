#include "telemetry/trace_writer.hh"

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/prism_assert.hh"

namespace prism::telemetry
{

namespace
{

/** Trace-time position of an interval: 1 interval == 1000 µs. */
std::uint64_t
intervalTs(std::uint64_t interval)
{
    return interval * 1000;
}

/**
 * RFC 4180 CSV field: quoted (with inner quotes doubled) only when
 * the value contains a comma, quote or line break, so the common
 * case — plain job names — stays byte-identical to before.
 */
std::string
csvField(std::string_view v)
{
    const bool needs_quoting =
        v.find_first_of(",\"\n\r") != std::string_view::npos;
    if (!needs_quoting)
        return std::string(v);
    std::string out;
    out.reserve(v.size() + 2);
    out.push_back('"');
    for (const char c : v) {
        if (c == '"')
            out.push_back('"');
        out.push_back(c);
    }
    out.push_back('"');
    return out;
}

void
beginEvent(JsonWriter &w, std::string_view name, std::string_view ph,
           std::uint64_t pid, std::uint64_t ts)
{
    w.beginObject();
    w.kv("name", name);
    w.kv("ph", ph);
    w.kv("pid", pid);
    w.kv("tid", std::uint64_t{0});
    w.kv("ts", ts);
}

void
writeProcessName(JsonWriter &w, std::uint64_t pid,
                 const std::string &name)
{
    w.beginObject();
    w.kv("name", "process_name");
    w.kv("ph", "M");
    w.kv("pid", pid);
    w.kv("tid", std::uint64_t{0});
    w.key("args");
    w.beginObject();
    w.kv("name", name);
    w.endObject();
    w.endObject();
}

template <typename T>
void
writeCounterEvent(JsonWriter &w, std::string_view name,
                  std::uint64_t pid, std::uint64_t ts,
                  const std::vector<T> &per_core)
{
    beginEvent(w, name, "C", pid, ts);
    w.key("args");
    w.beginObject();
    for (std::size_t c = 0; c < per_core.size(); ++c)
        w.kv("c" + std::to_string(c), per_core[c]);
    w.endObject();
    w.endObject();
}

void
writeInstantEvent(JsonWriter &w, std::uint64_t pid,
                  const TelemetryEvent &ev,
                  std::span<const std::string> job_ids)
{
    beginEvent(w, eventKindName(ev.kind), "i", pid,
               intervalTs(ev.interval));
    w.kv("s", "p"); // process-scoped flow marker
    w.key("args");
    w.beginObject();
    if (ev.core != invalidCore)
        w.kv("core", static_cast<std::uint64_t>(ev.core));
    if (ev.interval >= 1 && ev.interval <= job_ids.size())
        w.kv("job", job_ids[ev.interval - 1]);
    w.kv("value", ev.value);
    w.endObject();
    w.endObject();
}

/**
 * Aggregated wall-clock span rows ("llc.access" → calls, wall ns),
 * reconstructed from the "<name>.calls"/"<name>.wall_ns" counter
 * pairs MetricsRegistry::span registers.
 */
std::vector<std::pair<std::string, std::pair<std::uint64_t, std::uint64_t>>>
spanAggregates(const MetricsRegistry &metrics)
{
    constexpr std::string_view calls_suffix = ".calls";
    const auto counters = metrics.counterValues();

    std::vector<std::pair<std::string,
                          std::pair<std::uint64_t, std::uint64_t>>>
        out;
    for (const auto &[name, value] : counters) {
        if (name.size() <= calls_suffix.size() ||
            name.substr(name.size() - calls_suffix.size()) !=
                calls_suffix)
            continue;
        const std::string base =
            name.substr(0, name.size() - calls_suffix.size());
        std::uint64_t wall = 0;
        bool has_wall = false;
        for (const auto &[other, v] : counters) {
            if (other == base + ".wall_ns") {
                wall = v;
                has_wall = true;
                break;
            }
        }
        if (has_wall)
            out.emplace_back(base, std::make_pair(value, wall));
    }
    return out;
}

} // namespace

void
TraceWriter::writeChromeTrace(std::ostream &os,
                              std::span<const TraceJob> jobs,
                              const MetricsRegistry *metrics,
                              std::uint64_t restored_jobs) const
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("displayTimeUnit", "ms");

    std::uint64_t dropped_samples = 0;
    std::uint64_t dropped_events = 0;
    for (const TraceJob &job : jobs) {
        panicIf(!job.recorder, "TraceWriter: job without recorder");
        dropped_samples += job.recorder->droppedSamples();
        dropped_events += job.recorder->droppedEvents();
    }

    w.key("otherData");
    w.beginObject();
    w.kv("schema", "prism-trace-v1");
    w.kv("time_base", "1 allocation interval == 1ms of trace time");
    w.kv("jobs", static_cast<std::uint64_t>(jobs.size()));
    w.kv("dropped_samples", dropped_samples);
    w.kv("dropped_events", dropped_events);
    if (restored_jobs > 0)
        w.kv("restored_jobs", restored_jobs);
    if (metrics) {
        w.key("metrics");
        metrics->writeJson(w, options_.includeWallTime);
    }
    w.endObject();

    w.key("traceEvents");
    w.beginArray();
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const TraceJob &job = jobs[j];
        const IntervalRecorder &rec = *job.recorder;
        const auto pid = static_cast<std::uint64_t>(j);

        writeProcessName(w, pid, job.name);

        for (std::size_t i = 0; i < rec.size(); ++i) {
            const IntervalSample &s = rec.sample(i);
            const std::uint64_t ts = intervalTs(s.interval);
            writeCounterEvent(w, "occupancy", pid, ts, s.occupancy);
            if (!s.target.empty())
                writeCounterEvent(w, "target", pid, ts, s.target);
            if (!s.evProb.empty())
                writeCounterEvent(w, "ev_prob", pid, ts, s.evProb);
            writeCounterEvent(w, "miss_frac", pid, ts, s.missFrac);
            writeCounterEvent(w, "ipc", pid, ts, s.ipc);
            writeCounterEvent(w, "hits", pid, ts, s.hits);
            writeCounterEvent(w, "misses", pid, ts, s.misses);
        }

        for (std::size_t i = 0; i < rec.eventCount(); ++i)
            writeInstantEvent(w, pid, rec.event(i), job.jobIds);
    }

    if (options_.includeWallTime && metrics) {
        // Aggregated spans as one synthetic "spans" process: each
        // span's total wall time renders as a single duration slice.
        const auto pid = static_cast<std::uint64_t>(jobs.size());
        writeProcessName(w, pid, "spans (aggregate wall time)");
        for (const auto &[base, agg] : spanAggregates(*metrics)) {
            beginEvent(w, base, "X", pid, 0);
            w.kv("dur", static_cast<double>(agg.second) / 1000.0);
            w.key("args");
            w.beginObject();
            w.kv("calls", agg.first);
            w.kv("wall_ns", agg.second);
            w.endObject();
            w.endObject();
        }
    }
    w.endArray();

    w.endObject();
}

void
TraceWriter::writeCsv(std::ostream &os,
                      std::span<const TraceJob> jobs) const
{
    os << "job,interval,core,occupancy,target,ev_prob,miss_frac,"
          "hits,misses,ipc\n";
    for (const TraceJob &job : jobs) {
        panicIf(!job.recorder, "TraceWriter: job without recorder");
        const IntervalRecorder &rec = *job.recorder;
        for (std::size_t i = 0; i < rec.size(); ++i) {
            const IntervalSample &s = rec.sample(i);
            for (std::size_t c = 0; c < s.occupancy.size(); ++c) {
                os << csvField(job.name) << ',' << s.interval
                   << ',' << c << ','
                   << JsonWriter::formatDouble(s.occupancy[c]) << ',';
                if (c < s.target.size())
                    os << JsonWriter::formatDouble(s.target[c]);
                os << ',';
                if (c < s.evProb.size())
                    os << JsonWriter::formatDouble(s.evProb[c]);
                os << ','
                   << JsonWriter::formatDouble(s.missFrac[c]) << ','
                   << s.hits[c] << ',' << s.misses[c] << ','
                   << JsonWriter::formatDouble(s.ipc[c]) << '\n';
            }
        }
    }
}

} // namespace prism::telemetry
