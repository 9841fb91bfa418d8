/**
 * @file
 * Figure registry core: lookup, execution, the PRISM_BENCH_* knobs
 * and the hidden regression fixture sweep.
 */

#include "figures_impl.hh"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>

#include "analysis/doctor.hh"
#include "analysis/series.hh"
#include "common/atomic_file.hh"
#include "common/parse.hh"
#include "exec/checkpoint.hh"
#include "telemetry/exporter.hh"
#include "telemetry/trace_writer.hh"

namespace prism::bench
{

namespace
{

/** The PRISM_BENCH_* knobs, parsed once per process. */
struct BenchEnv
{
    double scale = 1.0;
    unsigned workloads = 6;
    /** Names the first malformed variable; ok when both parse. */
    Status status;
};

BenchEnv
parseBenchEnv()
{
    BenchEnv env;
    if (const char *text = std::getenv("PRISM_BENCH_SCALE")) {
        // Every budget a figure runs must be at least one
        // instruction and fit the uint64_t it is stored in (which
        // also rules out zero, negative, infinite and NaN scales).
        const double max_budget = kSmallMachineBudget * kMaxBudgetStretch;
        double s = 0.0;
        if (!parseDouble(text, s) || !(s * kLargeMachineBudget >= 1.0) ||
            !(s * max_budget < 0x1p64)) {
            std::ostringstream msg;
            msg << "PRISM_BENCH_SCALE must be a number in ["
                << 1.0 / kLargeMachineBudget << ", "
                << 0x1p64 / max_budget << "), got '" << text << "'";
            env.status = Status::error(msg.str());
            return env;
        }
        env.scale = s;
    }
    if (const char *text = std::getenv("PRISM_BENCH_WORKLOADS")) {
        std::uint64_t n = 0;
        if (!parseU64(text, n) ||
            n > std::numeric_limits<unsigned>::max()) {
            env.status = Status::error(
                "PRISM_BENCH_WORKLOADS must be an integer in [0, " +
                std::to_string(std::numeric_limits<unsigned>::max()) +
                "] (0 = all), got '" + text + "'");
            return env;
        }
        env.workloads = static_cast<unsigned>(n);
    }
    return env;
}

const BenchEnv &
benchEnv()
{
    static const BenchEnv env = parseBenchEnv();
    return env;
}

/**
 * The hidden golden-regression fixture: a tiny fully pinned sweep
 * (independent of the PRISM_BENCH_* knobs) whose JSON output is
 * committed under tests/golden/ and compared field-for-field by
 * tests/test_bench_golden.cc. Guards the runner/sweep refactor and
 * every future PR against silent behavioural drift.
 */
Figure
fixtureFigure()
{
    Figure f;
    f.id = "fixture";
    f.title = "golden regression fixture (not a paper figure)";
    f.paper = "committed JSON under tests/golden/ must reproduce "
              "field-for-field";
    f.listed = false;

    auto machine = []() {
        MachineConfig m;
        m.numCores = 2;
        m.llcBytes = 256ull << 10;
        m.llcWays = 8;
        m.intervalMisses = 1024;
        m.instrBudget = 60'000;
        m.warmupInstr = 15'000;
        return m;
    };
    auto mixes = []() {
        return std::vector<Workload>{
            {"GF", {"403.gcc", "186.crafty"}},
            {"SS", {"179.art", "470.lbm"}},
        };
    };

    f.spec = [machine, mixes]() {
        SweepSpec spec;
        spec.name = "fixture";
        const MachineConfig m = machine();
        SchemeOptions quantised;
        quantised.probBits = 6;
        for (const auto &w : mixes()) {
            spec.add(m, w, SchemeKind::Baseline);
            spec.add(m, w, SchemeKind::PrismH);
            spec.add(m, w, SchemeKind::PrismH, quantised, "b6");
            spec.add(m, w, SchemeKind::FairWP);
            // One derived-seed replica exercises the seed axis.
            spec.add(m, w, SchemeKind::PrismH, {}, "", 1);
        }
        return spec;
    };

    f.report = [mixes](const SweepResults &res, std::ostream &os) {
        Table t({"workload", "scheme", "ANTT", "fairness"});
        for (const auto &w : mixes()) {
            for (const SchemeKind s :
                 {SchemeKind::Baseline, SchemeKind::PrismH,
                  SchemeKind::FairWP}) {
                const RunResult &r =
                    res.at(SweepSpec::makeId("", w.name, s));
                t.addRow({w.name, r.scheme, Table::num(r.antt()),
                          Table::num(r.fairness())});
            }
        }
        t.print(os);
    };

    f.summary = [mixes](JsonWriter &w, const SweepResults &res) {
        std::vector<double> antt;
        for (const auto &wl : mixes())
            antt.push_back(
                res.at(SweepSpec::makeId("", wl.name,
                                         SchemeKind::PrismH))
                    .antt());
        w.kv("prism_h_antt", std::span<const double>(antt));
    };
    return f;
}

/**
 * Diagnose every finished job, print the verdicts and the sweep
 * roll-up, and optionally write the prism-doctor-v1 document.
 * Verdicts are derived from each job's recorder + result in spec
 * order, so the output is byte-identical at any thread count.
 *
 * Quarantined/skipped jobs have no series to analyse; they get a
 * hand-built exec verdict instead (FAIL / WARN). When the sweep's
 * execution itself was noteworthy (retries, quarantines, torn
 * writes, a discarded checkpoint), an "exec" verdict over
 * @p exec_series is appended — clean runs keep emitting the exact
 * legacy document.
 *
 * @return 1 when any verdict FAILs (or the JSON cannot be written).
 */
int
doctorSweep(const SweepSpec &spec, const SweepOutcome &outcome,
            const FigureRunOptions &options,
            const analysis::ExecSeries &exec_series, std::ostream &os)
{
    using namespace prism::analysis;

    const DoctorThresholds thresholds;
    std::vector<Verdict> verdicts;
    verdicts.reserve(spec.jobs.size());
    for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
        const SweepJob &job = spec.jobs[i];
        const RunResult &r = outcome.results[i];
        const JobReport &report = outcome.reports[i];

        if (!report.succeeded()) {
            // No result to analyse — report the execution failure.
            verdicts.push_back(failedJobVerdict(
                job.id, report.state != JobState::Quarantined,
                report.attempts,
                report.failures.empty()
                    ? ""
                    : report.failures.back().message));
            continue;
        }

        RunSeries s;
        if (r.recorder)
            s = seriesFromRecorder(*r.recorder, job.id);
        else
            s.name = job.id;
        attachRunResult(s, r);
        s.name = job.id; // attachRunResult does not touch the name
        if (job.scheme == SchemeKind::PrismQ)
            s.qosTargetFrac = job.options.qosTargetFrac;
        verdicts.push_back(analyze(s, thresholds));
    }

    const bool exec_noteworthy = outcome.noteworthy() ||
                                 exec_series.tornWrites > 0 ||
                                 exec_series.checkpointCorrupt > 0;
    if (exec_noteworthy)
        verdicts.push_back(analyzeExec(exec_series));

    os << "\n";
    for (const Verdict &v : verdicts)
        printReport(os, v);
    if (verdicts.size() > 1)
        printReport(os, rollup(verdicts));

    if (!options.doctorJsonPath.empty()) {
        const std::filesystem::path parent =
            std::filesystem::path(options.doctorJsonPath)
                .parent_path();
        if (!parent.empty()) {
            std::error_code ec; // write failure is caught below
            std::filesystem::create_directories(parent, ec);
        }
        const Status st = writeFileAtomic(
            options.doctorJsonPath, [&](std::ostream &file) {
                writeDoctorDocument(file, "sweep", verdicts,
                                    thresholds);
            });
        if (!st.ok()) {
            std::cerr << "prism_bench: cannot write "
                      << options.doctorJsonPath << ": "
                      << st.message() << "\n";
            return 1;
        }
        os << "wrote " << options.doctorJsonPath << "\n";
    }
    return worstOf(verdicts) == FindingStatus::Fail ? 1 : 0;
}

} // namespace

double
scaleFactor()
{
    return benchEnv().scale;
}

unsigned
workloadCap()
{
    return benchEnv().workloads;
}

const std::vector<Figure> &
figureRegistry()
{
    static const std::vector<Figure> registry = []() {
        std::vector<Figure> figs;
        registerMotivationFigures(figs);
        registerEvaluationFigures(figs);
        registerAnalysisFigures(figs);
        figs.push_back(fixtureFigure());
        return figs;
    }();
    return registry;
}

const Figure *
findFigure(std::string_view id)
{
    for (const Figure &f : figureRegistry())
        if (f.id == id)
            return &f;
    return nullptr;
}

int
runFigure(const Figure &fig, const FigureRunOptions &options)
{
    if (const Status &st = benchEnv().status; !st.ok()) {
        std::cerr << "prism_bench: " << st.message() << "\n";
        return 2;
    }

    std::ostream &os = std::cout;
    os << "PriSM reproduction — " << fig.title << "\n"
       << "paper: " << fig.paper << "\n"
       << "scale: budgets x" << scaleFactor() << ", "
       << (workloadCap() ? std::to_string(workloadCap())
                         : std::string("all"))
       << " workloads per suite\n";

    SweepSpec spec = fig.spec();

    // --- supervision (docs/RELIABILITY.md) -------------------------
    SupervisorConfig supervision;
    supervision.enabled = true;
    supervision.maxAttempts = options.retries + 1;
    supervision.deadlineSeconds = options.deadlineSeconds;
    supervision.chaosSeed = options.chaosSeed;
    if (!options.chaosSpec.empty()) {
        if (const Status st =
                parseChaosSpec(options.chaosSpec, supervision.chaos);
            !st.ok()) {
            std::cerr << "prism_bench: --chaos: " << st.message()
                      << "\n";
            return 2;
        }
    }

    // --- checkpoint restore (--resume) -----------------------------
    std::uint64_t ckpt_corrupt = 0;
    SweepResume resume_data;
    bool have_resume = false;
    if (options.resume && !options.ckptPath.empty()) {
        if (!std::filesystem::exists(options.ckptPath)) {
            os << "resume: no checkpoint at " << options.ckptPath
               << "; running the full sweep\n";
        } else {
            CheckpointData ckpt;
            const Status st = loadCheckpoint(options.ckptPath, ckpt);
            if (!st.ok()) {
                std::cerr << "prism_bench: " << st.message()
                          << "; restarting the sweep from scratch\n";
                ckpt_corrupt = 1;
            } else if (ckpt.fingerprint != sweepFingerprint(spec)) {
                std::cerr << "prism_bench: checkpoint "
                          << options.ckptPath
                          << " belongs to a different sweep "
                             "(fingerprint mismatch); restarting "
                             "from scratch\n";
                ckpt_corrupt = 1;
            } else {
                for (CheckpointJob &job : ckpt.jobs) {
                    SweepResume::Entry e;
                    e.result = std::move(job.result);
                    e.attempts = job.attempts;
                    e.failures = std::move(job.failures);
                    resume_data.completed.emplace(job.id,
                                                  std::move(e));
                }
                have_resume = !resume_data.completed.empty();
                os << "resume: restoring "
                   << resume_data.completed.size()
                   << " completed job(s) from " << options.ckptPath
                   << "\n";
            }
        }
    }

    const bool tracing =
        !options.tracePath.empty() || !options.traceCsvPath.empty();
    const bool exporting = !options.metricsOutPath.empty() ||
                           !options.metricsPromPath.empty();
    telemetry::MetricsRegistry metrics;
    if (tracing || exporting || options.doctor) {
        // Turn recording on for every job (passive observation: it
        // perturbs no simulation state, so tables and BENCH JSON are
        // unchanged). Jobs the figure already configured keep their
        // capacity.
        for (SweepJob &job : spec.jobs) {
            if (!job.options.telemetry.enabled) {
                job.options.telemetry.enabled = true;
                job.options.telemetry.capacity = options.traceCapacity;
            }
            if (tracing || exporting)
                job.options.telemetry.metrics = &metrics;
        }
    }

    // --- live metrics exposition -----------------------------------
    telemetry::MetricsExporter exporter(telemetry::ExporterConfig{
        options.metricsOutPath, options.metricsPromPath,
        options.metricsEvery});
    const auto benchSnapshot =
        [&metrics, &fig](std::uint64_t completed, std::uint64_t total,
                         std::uint64_t ops, std::uint64_t intervals,
                         std::uint64_t dropped_samples,
                         std::uint64_t dropped_events) {
            telemetry::MetricsSnapshot snap;
            snap.source = "bench";
            snap.run = fig.id;
            snap.round = completed;
            snap.ops = ops;
            snap.intervals = intervals;
            snap.jobsCompleted = completed;
            snap.jobsTotal = total;
            snap.droppedSamples = dropped_samples;
            snap.droppedEvents = dropped_events;
            snap.metrics = &metrics;
            return snap;
        };

    // --- checkpoint writer -----------------------------------------
    std::unique_ptr<CheckpointWriter> ckpt_writer;
    if (!options.ckptPath.empty()) {
        CheckpointWriter::Options wopts;
        wopts.every = options.ckptEvery;
        wopts.chaos = supervision.chaos;
        ckpt_writer = std::make_unique<CheckpointWriter>(
            options.ckptPath, spec, wopts);
        if (have_resume) {
            // Restored jobs stay in the file so a second kill still
            // resumes from the union of both runs.
            for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
                const auto it =
                    resume_data.completed.find(spec.jobs[i].id);
                if (it == resume_data.completed.end())
                    continue;
                JobReport report;
                report.attempts = it->second.attempts;
                report.failures = it->second.failures;
                report.state = report.attempts > 1
                                   ? JobState::Recovered
                                   : JobState::Done;
                report.restored = true;
                ckpt_writer->seed(i, it->second.result, report);
            }
        }
    }

    SweepRunner runner(options.threads);
    if (tracing)
        runner.setMetrics(&metrics);
    runner.setSupervisor(supervision);
    if (options.stopFlag)
        runner.setStopFlag(options.stopFlag);

    // Mid-run cumulative counters for the periodic snapshots; the
    // runner serialises observer calls, so plain fields suffice.
    struct LiveTotals
    {
        std::uint64_t ops = 0;
        std::uint64_t intervals = 0;
        std::uint64_t droppedSamples = 0;
        std::uint64_t droppedEvents = 0;
    };
    auto live_totals = std::make_shared<LiveTotals>();

    const bool periodic_metrics =
        exporting && options.metricsEvery > 0;
    if (options.progress || ckpt_writer || periodic_metrics) {
        CheckpointWriter *writer = ckpt_writer.get();
        const bool progress = options.progress;
        const unsigned die_after = options.dieAfter;
        telemetry::MetricsExporter *exp =
            periodic_metrics ? &exporter : nullptr;
        auto executed = std::make_shared<std::atomic<unsigned>>(0);
        runner.setJobObserver([writer, progress, die_after, executed,
                               exp, live_totals, &benchSnapshot](
                                  const SweepJob &job,
                                  const RunResult &r,
                                  const SweepRunner::JobProgress &p) {
            if (progress) {
                if (p.state == JobState::Done ||
                    p.state == JobState::Recovered) {
                    std::cerr << "prism_bench: [" << p.done << "/"
                              << p.total << "] " << job.id
                              << " done (intervals " << r.intervals
                              << ", degraded " << r.degradedIntervals
                              << ")";
                    if (p.attempts > 1)
                        std::cerr << " [recovered, attempt "
                                  << p.attempts << "]";
                    std::cerr << "\n";
                } else {
                    std::cerr << "prism_bench: [" << p.done << "/"
                              << p.total << "] " << job.id << " "
                              << jobStateName(p.state) << " after "
                              << p.attempts << " attempt(s)\n";
                }
            }
            if (writer && p.report && p.report->succeeded()) {
                if (const Status st =
                        writer->record(p.index, r, *p.report);
                    !st.ok())
                    std::cerr
                        << "prism_bench: checkpoint write failed: "
                        << st.message() << "\n";
                const unsigned n = ++*executed;
                if (die_after && n == die_after) {
                    // Test hook: simulate a hard crash right after
                    // this job's state reached disk.
                    (void)writer->flush();
                    std::raise(SIGKILL);
                }
            }
            if (exp) {
                for (const std::uint64_t h : r.llcHits)
                    live_totals->ops += h;
                for (const std::uint64_t m : r.llcMisses)
                    live_totals->ops += m;
                live_totals->intervals += r.intervals;
                if (r.recorder) {
                    live_totals->droppedSamples +=
                        r.recorder->droppedSamples();
                    live_totals->droppedEvents +=
                        r.recorder->droppedEvents();
                }
                if (exp->due(p.done)) {
                    if (const Status st = exp->flush(benchSnapshot(
                            p.done, p.total, live_totals->ops,
                            live_totals->intervals,
                            live_totals->droppedSamples,
                            live_totals->droppedEvents));
                        !st.ok())
                        std::cerr << "prism_bench: metrics "
                                     "snapshot failed: "
                                  << st.message() << "\n";
                }
            }
        });
    }

    const SweepOutcome outcome =
        runner.run(spec, have_resume ? &resume_data : nullptr);
    const SweepResults results(spec, outcome);

    // The final snapshot recomputes its totals from the outcome in
    // spec order, so it is byte-identical at any --threads value
    // even though the periodic snapshots are completion-ordered.
    const auto flushFinalMetrics = [&]() -> Status {
        if (!exporting)
            return Status();
        std::uint64_t ops = 0, intervals = 0;
        std::uint64_t dropped_samples = 0, dropped_events = 0;
        for (const RunResult &r : outcome.results) {
            for (const std::uint64_t h : r.llcHits)
                ops += h;
            for (const std::uint64_t m : r.llcMisses)
                ops += m;
            intervals += r.intervals;
            if (r.recorder) {
                dropped_samples += r.recorder->droppedSamples();
                dropped_events += r.recorder->droppedEvents();
            }
        }
        const std::uint64_t completed =
            outcome.countState(JobState::Done) +
            outcome.countState(JobState::Recovered);
        return exporter.flush(benchSnapshot(
            completed, spec.jobs.size(), ops, intervals,
            dropped_samples, dropped_events));
    };

    if (outcome.stopped) {
        const std::uint64_t completed =
            outcome.countState(JobState::Done) +
            outcome.countState(JobState::Recovered);
        if (ckpt_writer) {
            (void)ckpt_writer->flush();
            std::cerr << "prism_bench: interrupted; " << completed
                      << " completed job(s) saved to "
                      << options.ckptPath
                      << " — rerun with --resume to continue\n";
        } else {
            std::cerr << "prism_bench: interrupted; " << completed
                      << " completed job(s) lost (run with --ckpt "
                         "FILE to make sweeps resumable)\n";
        }
        // The metrics file still gets its final state: a tailing
        // prism_top sees where the interrupted sweep stopped.
        if (const Status st = flushFinalMetrics(); !st.ok())
            std::cerr << "prism_bench: metrics snapshot failed: "
                      << st.message() << "\n";
        return 130;
    }

    const std::uint64_t quarantined =
        outcome.countState(JobState::Quarantined);
    const bool degraded = quarantined > 0;

    if (!degraded) {
        fig.report(results, os);
    } else {
        os << "\nexec: sweep degraded — " << quarantined
           << " job(s) quarantined; tables suppressed "
           "(BENCH JSON carries the per-job errors)\n";
    }

    os << "\nsweep: " << spec.jobs.size() << " jobs, "
       << outcome.standaloneSims << " stand-alone sims, "
       << Table::num(outcome.wallSeconds, 2) << " s on "
       << outcome.threads << " thread(s) ("
       << Table::num(outcome.jobsPerSecond, 2) << " jobs/s)\n";

    // --- salvaged-vs-failed manifest -------------------------------
    if (outcome.restored > 0)
        os << "exec: restored " << outcome.restored
           << " job(s) from checkpoint\n";
    const std::uint64_t recovered =
        outcome.countState(JobState::Recovered);
    if (recovered > 0)
        os << "exec: recovered " << recovered << " job(s) after "
           << outcome.retriedAttempts() << " retried attempt(s)\n";
    if (degraded) {
        os << "exec: quarantined " << quarantined << " job(s)\n";
        for (std::size_t i = 0; i < outcome.reports.size(); ++i) {
            const JobReport &report = outcome.reports[i];
            if (report.state != JobState::Quarantined)
                continue;
            std::cerr << "prism_bench: job " << spec.jobs[i].id
                      << " quarantined after " << report.attempts
                      << " attempts";
            if (!report.failures.empty())
                std::cerr << " (last error: "
                          << report.failures.back().message << ")";
            std::cerr << "\n";
        }
    }

    if (tracing) {
        std::vector<telemetry::TraceJob> trace_jobs;
        trace_jobs.reserve(spec.jobs.size() + 1);
        for (std::size_t i = 0; i < spec.jobs.size(); ++i)
            trace_jobs.push_back({spec.jobs[i].id,
                                  outcome.results[i].recorder.get()});

        // Exec timeline: retries/timeouts/quarantines as a pseudo-job
        // built from the reports in spec order (deterministic at any
        // thread count; the "interval" axis is the 1-based job spec
        // index, the value the attempt).
        std::unique_ptr<telemetry::IntervalRecorder> exec_recorder;
        if (outcome.noteworthy()) {
            std::size_t events = 0;
            for (const JobReport &r : outcome.reports)
                events += 2 * r.failures.size() + 1;
            exec_recorder =
                std::make_unique<telemetry::IntervalRecorder>(
                    events > 0 ? events : 1);
            for (std::size_t i = 0; i < outcome.reports.size(); ++i) {
                const JobReport &report = outcome.reports[i];
                for (std::size_t k = 0; k < report.failures.size();
                     ++k) {
                    telemetry::TelemetryEvent ev;
                    ev.interval = i + 1;
                    ev.value = static_cast<double>(k + 1);
                    if (report.failures[k].kind ==
                        JobErrorKind::Timeout) {
                        ev.kind = telemetry::EventKind::JobTimeout;
                        exec_recorder->addEvent(ev);
                    }
                    if (k + 2 <= report.attempts) {
                        ev.kind = telemetry::EventKind::JobRetry;
                        exec_recorder->addEvent(ev);
                    }
                }
                if (report.state == JobState::Quarantined) {
                    telemetry::TelemetryEvent ev;
                    ev.kind = telemetry::EventKind::JobQuarantine;
                    ev.interval = i + 1;
                    ev.value = static_cast<double>(report.attempts);
                    exec_recorder->addEvent(ev);
                }
            }
            trace_jobs.push_back({"exec", exec_recorder.get()});
        }

        const telemetry::TraceWriter writer; // wall time stays out
        if (!options.tracePath.empty()) {
            const Status st = writeFileAtomic(
                options.tracePath, [&](std::ostream &file) {
                    writer.writeChromeTrace(file, trace_jobs,
                                            &metrics);
                });
            if (!st.ok()) {
                std::cerr << "prism_bench: cannot write "
                          << options.tracePath << ": " << st.message()
                          << "\n";
                return 1;
            }
            os << "wrote " << options.tracePath << "\n";
        }
        if (!options.traceCsvPath.empty()) {
            const Status st = writeFileAtomic(
                options.traceCsvPath, [&](std::ostream &file) {
                    writer.writeCsv(file, trace_jobs);
                });
            if (!st.ok()) {
                std::cerr << "prism_bench: cannot write "
                          << options.traceCsvPath << ": "
                          << st.message() << "\n";
                return 1;
            }
            os << "wrote " << options.traceCsvPath << "\n";
        }

        // The trace header records drop totals, but nobody reads a
        // header they don't expect — surface truncation on the
        // console too.
        std::uint64_t dropped_samples = 0, dropped_events = 0;
        for (const RunResult &r : outcome.results) {
            if (r.recorder) {
                dropped_samples += r.recorder->droppedSamples();
                dropped_events += r.recorder->droppedEvents();
            }
        }
        if (dropped_samples || dropped_events)
            std::cerr << "prism_bench: trace truncated: "
                      << dropped_samples << " samples and "
                      << dropped_events
                      << " events dropped across the sweep (ring "
                         "capacity "
                      << options.traceCapacity
                      << "); raise --trace-capacity to keep the full "
                         "series\n";
    }

    int rc = degraded ? 1 : 0;

    if (exporting) {
        if (const Status st = flushFinalMetrics(); !st.ok()) {
            std::cerr << "prism_bench: cannot write metrics "
                         "snapshot: "
                      << st.message() << "\n";
            rc = 1;
        } else {
            if (!options.metricsOutPath.empty())
                os << "wrote " << options.metricsOutPath << "\n";
            if (!options.metricsPromPath.empty())
                os << "wrote " << options.metricsPromPath << "\n";
        }
    }

    if (options.doctor) {
        analysis::ExecSeries exec_series;
        exec_series.jobs = spec.jobs.size();
        exec_series.completed =
            outcome.countState(JobState::Done) + recovered;
        exec_series.recovered = recovered;
        exec_series.quarantined = quarantined;
        exec_series.skipped = outcome.countState(JobState::Skipped);
        exec_series.retries = outcome.retriedAttempts();
        exec_series.timeouts =
            outcome.countFailures(JobErrorKind::Timeout);
        exec_series.tornWrites =
            ckpt_writer ? ckpt_writer->tornWrites() : 0;
        exec_series.checkpointCorrupt = ckpt_corrupt;
        for (std::size_t i = 0; i < outcome.reports.size(); ++i)
            if (!outcome.reports[i].succeeded())
                exec_series.failedIds.push_back(spec.jobs[i].id);
        rc |= doctorSweep(spec, outcome, options, exec_series, os);
    }

    if (options.writeJson) {
        std::error_code ec; // best-effort; write failure caught below
        std::filesystem::create_directories(options.outDir, ec);
        const std::string path =
            options.outDir + "/BENCH_" + fig.id + ".json";
        SweepJsonOptions json_options;
        json_options.includeTiming = options.includeTiming;
        std::function<void(JsonWriter &)> summary;
        // A degraded sweep has default-constructed results in the
        // grid; figure summaries index them freely, so they only run
        // over complete sweeps.
        if (fig.summary && !degraded)
            summary = [&fig, &results](JsonWriter &w) {
                fig.summary(w, results);
            };
        const Status st =
            writeFileAtomic(path, [&](std::ostream &file) {
                writeSweepJson(file, spec, outcome, json_options,
                               summary);
            });
        if (!st.ok()) {
            std::cerr << "prism_bench: cannot write " << path << ": "
                      << st.message() << "\n";
            return 1;
        }
        os << "wrote " << path << "\n";
    }

    if (ckpt_writer) {
        if (degraded) {
            // Keep the successful jobs on disk: a --resume rerun
            // retries only the quarantined ones.
            (void)ckpt_writer->flush();
            os << "checkpoint kept: " << options.ckptPath
               << " (rerun with --resume to retry the failed "
                  "job(s))\n";
        } else {
            std::remove(options.ckptPath.c_str());
        }
    }
    return rc;
}

} // namespace prism::bench
