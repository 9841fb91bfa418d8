#include "exec/checkpoint.hh"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/atomic_file.hh"
#include "common/rng.hh"

namespace prism
{

namespace
{

constexpr const char *kSchema = "prism-ckpt-v1";

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

} // namespace

std::string
sweepFingerprint(const SweepSpec &spec)
{
    std::uint64_t h = deriveSeed(0x5157EEDCAFEULL, spec.name);
    for (const SweepJob &job : spec.jobs) {
        h = deriveSeed(h, job.id);
        h = deriveSeed(h, job.config.fingerprint());
        h = deriveSeed(h, schemeName(job.scheme));
        // Every option that can change a result is part of the key.
        std::ostringstream opt;
        opt << job.options.probBits << ":"
            << job.options.qosTargetFrac << ":"
            << job.options.vantageUnitsPerWay << ":"
            << job.options.faultSpec << ":" << job.options.checked;
        h = deriveSeed(h, opt.str());
    }
    return hex64(h);
}

namespace
{

double
jsonDouble(const JsonValue &v)
{
    // Non-finite doubles serialise as JSON null; restore them as NaN
    // (both NaN and Inf re-serialise as null, so the byte round trip
    // holds either way).
    if (v.isNull())
        return std::numeric_limits<double>::quiet_NaN();
    return v.asDouble();
}

Status
readDoubleArray(const JsonValue &obj, const char *key,
                std::vector<double> &out)
{
    const JsonValue &a = obj.at(key);
    if (!a.isArray())
        return Status::error(std::string("missing array '") + key +
                             "'");
    out.clear();
    for (const JsonValue &e : a.elements())
        out.push_back(jsonDouble(e));
    return Status();
}

Status
readU64Array(const JsonValue &obj, const char *key,
             std::vector<std::uint64_t> &out)
{
    const JsonValue &a = obj.at(key);
    if (!a.isArray())
        return Status::error(std::string("missing array '") + key +
                             "'");
    out.clear();
    for (const JsonValue &e : a.elements())
        out.push_back(e.asU64());
    return Status();
}

} // namespace

Status
readRunResultFields(const JsonValue &obj, RunResult &out)
{
    if (!obj.isObject())
        return Status::error("result is not an object");

    RunResult r;
    r.workload = obj.at("workload").asString();
    r.scheme = obj.at("scheme").asString();

    const JsonValue &benchmarks = obj.at("benchmarks");
    if (!benchmarks.isArray())
        return Status::error("missing array 'benchmarks'");
    for (const JsonValue &b : benchmarks.elements())
        r.benchmarks.push_back(b.asString());

    Status st;
    if (!(st = readDoubleArray(obj, "ipc", r.ipc)).ok())
        return st;
    if (!(st = readDoubleArray(obj, "ipc_standalone",
                               r.ipcStandalone))
             .ok())
        return st;
    if (!(st = readU64Array(obj, "llc_misses", r.llcMisses)).ok())
        return st;
    if (!(st = readU64Array(obj, "llc_hits", r.llcHits)).ok())
        return st;
    if (!(st = readDoubleArray(obj, "occupancy_at_finish",
                               r.occupancyAtFinish))
             .ok())
        return st;
    if (!(st = readDoubleArray(obj, "ev_prob_mean", r.evProbMean))
             .ok())
        return st;
    if (!(st = readDoubleArray(obj, "ev_prob_stddev", r.evProbStddev))
             .ok())
        return st;

    r.intervals = obj.at("intervals").asU64();
    r.victimlessFraction = jsonDouble(obj.at("victimless_fraction"));
    r.recomputes = obj.at("recomputes").asU64();
    r.faultsInjected = obj.at("faults_injected").asU64();
    r.degradedIntervals = obj.at("degraded_intervals").asU64();
    r.invariantViolations = obj.at("invariant_violations").asU64();
    r.ownershipRepairs = obj.at("ownership_repairs").asU64();
    r.clampedEq1Inputs = obj.at("clamped_eq1_inputs").asU64();
    r.droppedRecomputes = obj.at("dropped_recomputes").asU64();
    r.fallbackEntries = obj.at("fallback_entries").asU64();
    // Backend fields: present only for schemes that set them.
    if (const JsonValue *plane = obj.find("plane")) {
        r.plane = plane->asString();
        r.wayQuantError = jsonDouble(obj.at("way_quant_error"));
    }

    out = std::move(r);
    return Status();
}

Status
loadCheckpoint(const std::string &path, CheckpointData &out)
{
    std::ifstream in(path);
    if (!in)
        return Status::error("cannot read " + path);
    std::ostringstream buf;
    buf << in.rdbuf();

    JsonValue doc;
    if (const Status st = parseJson(buf.str(), doc); !st.ok())
        return Status::error("corrupt checkpoint: " + st.message());
    if (doc.at("schema").asString() != kSchema)
        return Status::error(
            "corrupt checkpoint: not a prism-ckpt-v1 document");

    CheckpointData data;
    data.sweep = doc.at("sweep").asString();
    data.fingerprint = doc.at("fingerprint").asString();
    const JsonValue &jobs = doc.at("jobs");
    if (!jobs.isArray())
        return Status::error("corrupt checkpoint: missing jobs array");
    for (const JsonValue &job : jobs.elements()) {
        CheckpointJob cj;
        cj.id = job.at("id").asString();
        if (cj.id.empty())
            return Status::error(
                "corrupt checkpoint: job without an id");
        const std::uint64_t attempts = job.at("attempts").asU64();
        cj.attempts =
            attempts > 0 ? static_cast<unsigned>(attempts) : 1;
        for (const JsonValue &f : job.at("failures").elements()) {
            JobFailure failure;
            if (!jobErrorKindFromName(f.at("kind").asString(),
                                      failure.kind))
                return Status::error(
                    "corrupt checkpoint: job '" + cj.id +
                    "': unknown failure kind '" +
                    f.at("kind").asString() + "'");
            failure.message = f.at("message").asString();
            cj.failures.push_back(std::move(failure));
        }
        if (const Status st =
                readRunResultFields(job.at("result"), cj.result);
            !st.ok())
            return Status::error("corrupt checkpoint: job '" + cj.id +
                                 "': " + st.message());
        data.jobs.push_back(std::move(cj));
    }
    out = std::move(data);
    return Status();
}

CheckpointWriter::CheckpointWriter(std::string path,
                                   const SweepSpec &spec,
                                   Options options)
    : path_(std::move(path)), spec_(&spec),
      fingerprint_(sweepFingerprint(spec)),
      options_(std::move(options))
{
    if (options_.every == 0)
        options_.every = 1;
}

void
CheckpointWriter::seed(std::size_t index, const RunResult &result,
                       const JobReport &report)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry &e = done_[index];
    e.attempts = report.attempts;
    e.failures = report.failures;
    e.result = result;
    e.result.recorder = nullptr; // the series is not persisted
}

Status
CheckpointWriter::record(std::size_t index, const RunResult &result,
                         const JobReport &report)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry &e = done_[index];
    e.attempts = report.attempts;
    e.failures = report.failures;
    e.result = result;
    e.result.recorder = nullptr;
    if (++since_flush_ < options_.every)
        return Status();
    return flushLocked();
}

Status
CheckpointWriter::flush()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (done_.empty())
        return Status();
    return flushLocked();
}

Status
CheckpointWriter::flushLocked()
{
    since_flush_ = 0;
    const std::uint64_t ordinal = flushes_ + 1;

    std::ostringstream buf;
    {
        JsonWriter w(buf);
        w.beginObject();
        w.kv("schema", kSchema);
        w.kv("sweep", spec_->name);
        w.kv("fingerprint", fingerprint_);
        w.key("jobs");
        w.beginArray();
        for (const auto &[index, entry] : done_) {
            w.beginObject();
            w.kv("id", spec_->jobs[index].id);
            w.kv("attempts", std::uint64_t(entry.attempts));
            w.key("failures");
            w.beginArray();
            for (const JobFailure &f : entry.failures) {
                w.beginObject();
                w.kv("kind", jobErrorKindName(f.kind));
                w.kv("message", f.message);
                w.endObject();
            }
            w.endArray();
            w.key("result");
            w.beginObject();
            writeRunResultFields(w, entry.result);
            w.endObject();
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    const std::string payload = buf.str();
    ++flushes_;

    // torn_write chaos: bypass the atomic path and leave a
    // half-written file, exactly what tmp+rename is there to prevent.
    for (const FaultClause &c : options_.chaos) {
        if (c.kind == FaultKind::TornWrite && c.firesAt(ordinal)) {
            ++torn_writes_;
            std::ofstream torn(path_, std::ios::trunc);
            torn << payload.substr(0, payload.size() / 2);
            return Status();
        }
    }

    return writeFileAtomic(path_, payload);
}

std::uint64_t
CheckpointWriter::flushes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return flushes_;
}

std::uint64_t
CheckpointWriter::tornWrites() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return torn_writes_;
}

} // namespace prism
