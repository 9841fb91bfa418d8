#include "exec/sweep.hh"

#include <chrono>
#include <memory>
#include <mutex>
#include <ostream>

#include "common/prism_assert.hh"
#include "common/rng.hh"
#include "exec/thread_pool.hh"
#include "telemetry/span.hh"

namespace prism
{

std::string
SweepSpec::makeId(const std::string &tag, const std::string &workload,
                  SchemeKind scheme, std::uint32_t seed_index)
{
    std::string id;
    if (!tag.empty())
        id += tag + "/";
    id += workload + "/" + schemeName(scheme);
    if (seed_index > 0)
        id += "#s" + std::to_string(seed_index);
    return id;
}

std::size_t
SweepSpec::add(const MachineConfig &config, const Workload &workload,
               SchemeKind scheme, const SchemeOptions &options,
               const std::string &tag, std::uint32_t seed_index)
{
    SweepJob job;
    job.id = makeId(tag, workload.name, scheme, seed_index);
    panicIf(!ids_.insert(job.id).second,
            "SweepSpec::add: duplicate job id " + job.id);
    job.config = config;
    job.workload = workload;
    job.scheme = scheme;
    job.options = options;
    job.seedIndex = seed_index;
    panicIf(job.options.statsSink != nullptr,
            "SweepSpec::add: statsSink is not supported in sweeps");
    panicIf(job.options.statsJsonSink != nullptr,
            "SweepSpec::add: statsJsonSink is not supported in sweeps");
    // The per-job RNG stream: derived from the job's seed-replica
    // key, never from thread id or schedule order. Index 0 keeps
    // the configured seed so sweep results match direct Runner use.
    if (seed_index > 0)
        job.config.seed = deriveSeed(
            config.seed, "sweep-replica:" + std::to_string(seed_index));
    jobs.push_back(std::move(job));
    return jobs.size() - 1;
}

std::uint64_t
SweepOutcome::countState(JobState state) const
{
    std::uint64_t n = 0;
    for (const JobReport &r : reports)
        if (r.state == state)
            ++n;
    return n;
}

std::uint64_t
SweepOutcome::retriedAttempts() const
{
    std::uint64_t n = 0;
    for (const JobReport &r : reports)
        if (r.attempts > 1)
            n += r.attempts - 1;
    return n;
}

std::uint64_t
SweepOutcome::countFailures(JobErrorKind kind) const
{
    std::uint64_t n = 0;
    for (const JobReport &r : reports)
        for (const JobFailure &f : r.failures)
            if (f.kind == kind)
                ++n;
    return n;
}

bool
SweepOutcome::noteworthy() const
{
    for (const JobReport &r : reports)
        if (r.state != JobState::Done || r.attempts != 1)
            return true;
    return false;
}

SweepOutcome
SweepRunner::run(const SweepSpec &spec, const SweepResume *resume)
{
    const auto t0 = std::chrono::steady_clock::now();

    SweepOutcome out;
    out.results.resize(spec.jobs.size());
    out.reports.resize(spec.jobs.size());

    // The only mutable state shared between jobs: the once-per-key
    // memo of stand-alone reference simulations.
    auto memo = std::make_shared<StandaloneIpcMemo>();

    // Span stats resolve once up front (registry lock), then jobs
    // only touch the atomic counters from worker threads.
    telemetry::SpanStats job_span;
    if (metrics_)
        job_span = metrics_->span("sweep.job");

    const JobSupervisor supervisor(supervisor_config_, metrics_);
    const bool supervised = supervisor_config_.enabled;

    // Checkpoint restore: completed jobs keep their recorded result
    // and never touch the pool — the merged output is byte-identical
    // to an uninterrupted run because the restored fields round-trip
    // bit-exactly through the JSON layer.
    std::vector<char> is_restored(spec.jobs.size(), 0);
    if (resume) {
        for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
            const auto it = resume->completed.find(spec.jobs[i].id);
            if (it == resume->completed.end())
                continue;
            out.results[i] = it->second.result;
            JobReport &report = out.reports[i];
            report.state = it->second.attempts > 1
                               ? JobState::Recovered
                               : JobState::Done;
            report.attempts = it->second.attempts;
            report.failures = it->second.failures;
            report.restored = true;
            is_restored[i] = 1;
            ++out.restored;
        }
    }

    // Observer state: completion counter and the mutex serialising
    // callbacks (results themselves stay lock-free, one slot per job).
    std::mutex observer_mutex;
    std::size_t done = out.restored;

    {
        ThreadPool pool(threads_);
        out.threads = pool.threadCount();
        for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
            if (is_restored[i])
                continue;
            const SweepJob &job = spec.jobs[i];
            RunResult *slot = &out.results[i];
            JobReport *report = &out.reports[i];
            pool.submit([this, &spec, &job, slot, report, memo,
                         job_span, &supervisor, supervised,
                         &observer_mutex, &done, i]() {
                PRISM_SPAN(job_span);
                if (supervised) {
                    const JobSupervisor::Attempt<RunResult> attempt =
                        [&job, memo](const CancelToken &token) {
                            Runner runner(job.config, memo);
                            SchemeOptions options = job.options;
                            options.cancel = &token;
                            return runner.run(job.workload, job.scheme,
                                              options);
                        };
                    *slot = supervisor.supervise<RunResult>(
                        i + 1, job.id, attempt, *report, stop_);
                } else {
                    Runner runner(job.config, memo);
                    *slot = runner.run(job.workload, job.scheme,
                                       job.options);
                }
                if (observer_) {
                    std::lock_guard<std::mutex> lock(observer_mutex);
                    JobProgress p;
                    p.index = i;
                    p.done = ++done;
                    p.total = spec.jobs.size();
                    p.state = report->state;
                    p.attempts = report->attempts;
                    p.report = report;
                    observer_(job, *slot, p);
                }
            });
        }
        pool.wait();
    }

    for (const JobReport &r : out.reports)
        if (r.state == JobState::Skipped)
            out.stopped = true;

    const auto t1 = std::chrono::steady_clock::now();
    out.wallSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    out.jobsPerSecond =
        out.wallSeconds > 0.0
            ? static_cast<double>(spec.jobs.size()) / out.wallSeconds
            : 0.0;
    out.standaloneSims = memo->computes();
    return out;
}

SweepResults::SweepResults(const SweepSpec &spec,
                           const SweepOutcome &outcome)
    : outcome_(&outcome)
{
    panicIf(spec.jobs.size() != outcome.results.size(),
            "SweepResults: outcome does not match spec");
    for (std::size_t i = 0; i < spec.jobs.size(); ++i)
        by_id_.emplace(spec.jobs[i].id, &outcome.results[i]);
}

const RunResult &
SweepResults::at(const std::string &id) const
{
    const auto it = by_id_.find(id);
    panicIf(it == by_id_.end(), "SweepResults::at: no job " + id);
    return *it->second;
}

void
writeRunResultFields(JsonWriter &w, const RunResult &r)
{
    w.kv("workload", r.workload);
    w.kv("scheme", r.scheme);
    w.kv("benchmarks", std::span<const std::string>(r.benchmarks));
    w.kv("ipc", std::span<const double>(r.ipc));
    w.kv("ipc_standalone", std::span<const double>(r.ipcStandalone));
    w.kv("antt", r.antt());
    w.kv("fairness", r.fairness());
    w.kv("ipc_throughput", r.ipcThroughput());
    w.kv("llc_misses", std::span<const std::uint64_t>(r.llcMisses));
    w.kv("llc_hits", std::span<const std::uint64_t>(r.llcHits));
    w.kv("occupancy_at_finish",
         std::span<const double>(r.occupancyAtFinish));
    w.kv("intervals", r.intervals);
    w.kv("victimless_fraction", r.victimlessFraction);
    w.kv("ev_prob_mean", std::span<const double>(r.evProbMean));
    w.kv("ev_prob_stddev", std::span<const double>(r.evProbStddev));
    w.kv("recomputes", r.recomputes);
    w.kv("faults_injected", r.faultsInjected);
    w.kv("degraded_intervals", r.degradedIntervals);
    w.kv("invariant_violations", r.invariantViolations);
    w.kv("ownership_repairs", r.ownershipRepairs);
    w.kv("clamped_eq1_inputs", r.clampedEq1Inputs);
    w.kv("dropped_recomputes", r.droppedRecomputes);
    w.kv("fallback_entries", r.fallbackEntries);
    // Backend fields only for schemes that set them (PriSM-WM), so
    // simulator-backend documents stay byte-identical.
    if (!r.plane.empty()) {
        w.kv("plane", r.plane);
        w.kv("way_quant_error", r.wayQuantError);
    }
}

namespace
{

void
writeJobConfig(JsonWriter &w, const SweepJob &job)
{
    const MachineConfig &m = job.config;
    w.kv("cores", m.numCores);
    w.kv("llc_bytes", m.llcBytes);
    w.kv("llc_ways", m.llcWays);
    w.kv("block_bytes", m.blockBytes);
    w.kv("repl", replKindName(m.repl));
    w.kv("interval_misses", m.intervalMisses);
    w.kv("instr_budget", m.instrBudget);
    w.kv("warmup_instr", m.warmupInstr);
    w.kv("seed", m.seed);
    w.kv("seed_index", job.seedIndex);
    if (job.options.probBits)
        w.kv("prob_bits", job.options.probBits);
    if (job.scheme == SchemeKind::PrismQ)
        w.kv("qos_target_frac", job.options.qosTargetFrac);
}

} // namespace

void
writeSweepJson(std::ostream &os, const SweepSpec &spec,
               const SweepOutcome &outcome,
               const SweepJsonOptions &options,
               const std::function<void(JsonWriter &)> &summary)
{
    panicIf(spec.jobs.size() != outcome.results.size() ||
                spec.jobs.size() != outcome.reports.size(),
            "writeSweepJson: outcome does not match spec");

    JsonWriter w(os);
    w.beginObject();
    w.kv("schema", "prism-bench-v1");
    w.kv("sweep", spec.name);

    if (summary) {
        w.key("summary");
        w.beginObject();
        summary(w);
        w.endObject();
    }

    w.key("jobs");
    w.beginArray();
    for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
        const SweepJob &job = spec.jobs[i];
        w.beginObject();
        w.kv("id", job.id);
        w.key("config");
        w.beginObject();
        writeJobConfig(w, job);
        w.endObject();
        const JobReport &report = outcome.reports[i];
        if (!report.succeeded()) {
            w.key("error");
            w.beginObject();
            w.kv("state", jobStateName(report.state));
            w.kv("attempts", std::uint64_t(report.attempts));
            w.key("failures");
            w.beginArray();
            for (const JobFailure &f : report.failures) {
                w.beginObject();
                w.kv("kind", jobErrorKindName(f.kind));
                w.kv("message", f.message);
                w.endObject();
            }
            w.endArray();
            w.endObject();
        } else {
            w.key("result");
            w.beginObject();
            writeRunResultFields(w, outcome.results[i]);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();

    // Supervision surfaces only when something deviated from a clean
    // first-try success; clean runs emit the exact legacy document
    // (golden files, resume byte-identity).
    if (outcome.noteworthy()) {
        w.key("exec");
        w.beginObject();
        w.kv("completed",
             outcome.countState(JobState::Done) +
                 outcome.countState(JobState::Recovered));
        w.kv("recovered", outcome.countState(JobState::Recovered));
        w.kv("quarantined",
             outcome.countState(JobState::Quarantined));
        w.kv("skipped", outcome.countState(JobState::Skipped));
        w.kv("retries", outcome.retriedAttempts());
        w.kv("timeouts",
             outcome.countFailures(JobErrorKind::Timeout));
        w.endObject();
    }

    if (options.includeTiming) {
        w.key("timing");
        w.beginObject();
        w.kv("threads", outcome.threads);
        w.kv("wall_seconds", outcome.wallSeconds);
        w.kv("jobs_per_second", outcome.jobsPerSecond);
        w.kv("standalone_sims", outcome.standaloneSims);
        w.endObject();
    }
    w.endObject();
}

} // namespace prism
