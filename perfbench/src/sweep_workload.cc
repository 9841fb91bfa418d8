/**
 * @file
 * Workload sweep4: the fig03a_quad grid through a supervised
 * SweepRunner, repeated.
 *
 * 21 quad-core mixes x {LRU, PriSM-H, UCP, PIPP} = 84 jobs on
 * MachineConfig::forCores(4), supervised as prism_bench supervises
 * (retries on, no deadline), at nproc threads. Every sweep starts
 * with a fresh stand-alone memo, as a prism_bench run does.
 *
 * Traced: pairs of one untraced and one traced sweep (job spans rebuilt
 * from the completion observer: the pool is FIFO, so job i starts when
 * the (i - threads)-th job completes), then the stand-alone reference
 * runs timed alone, and a replay of mix Q1 under each of the four
 * schemes for the 4-core layer shares.
 */

#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>

#include "common/stats.hh"
#include "exec/sweep.hh"
#include "sim_replay.hh"
#include "workload/suites.hh"

namespace perfbench
{

using namespace prism;

namespace
{

constexpr unsigned kSampleEvery = 32;

const SchemeKind kSchemes[] = {SchemeKind::Baseline, SchemeKind::PrismH,
                               SchemeKind::UCP, SchemeKind::PIPP};

MachineConfig
quadMachine(const Args &args)
{
    // A quarter of the bench budget (1.5M instructions per core), so a
    // sweep takes seconds and a run holds several.
    MachineConfig m = MachineConfig::forCores(4);
    m.instrBudget = args.smoke ? 4'000 : 375'000;
    m.warmupInstr = m.instrBudget / 3;
    m.seed = args.seed;
    return m;
}

SweepSpec
makeSpec(const MachineConfig &m, const std::vector<Workload> &mixes)
{
    SweepSpec spec;
    spec.name = "fig03a_quad";
    for (const Workload &w : mixes)
        for (const SchemeKind s : kSchemes)
            spec.add(m, w, s);
    return spec;
}

SupervisorConfig
supervision()
{
    SupervisorConfig c;
    c.enabled = true;
    c.maxAttempts = 3;
    return c;
}

/** FNV-1a over every deterministic field of the sweep's results. */
std::uint64_t
resultsHash(const SweepOutcome &outcome)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](const void *p, std::size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ULL;
        }
    };
    for (const RunResult &r : outcome.results) {
        mix(r.ipc.data(), r.ipc.size() * sizeof(double));
        mix(r.ipcStandalone.data(), r.ipcStandalone.size() * sizeof(double));
        mix(r.llcHits.data(), r.llcHits.size() * sizeof(std::uint64_t));
        mix(r.llcMisses.data(), r.llcMisses.size() * sizeof(std::uint64_t));
        mix(&r.intervals, sizeof(r.intervals));
    }
    return h;
}

/** Geomean over mixes of ANTT(PriSM-H) / ANTT(LRU) (Fig. 3a). */
double
normAntt(const SweepOutcome &outcome)
{
    std::vector<double> ratios;
    const std::size_t per_mix = std::size(kSchemes);
    for (std::size_t i = 0; i + per_mix <= outcome.results.size();
         i += per_mix)
        ratios.push_back(outcome.results[i + 1].antt() /
                         outcome.results[i].antt());
    for (const double r : ratios)
        if (!(r > 0.0) || !std::isfinite(r))
            return std::numeric_limits<double>::quiet_NaN();
    return geomean(ratios);
}

/** Outcome of one sweep plus its completion timeline. */
struct Sweep
{
    SweepOutcome outcome;
    double seconds = 0.0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** (recorder time, job index) per completion, in callback order. */
    std::vector<std::pair<std::int64_t, std::size_t>> completions;
};

Sweep
runSweep(const SweepSpec &spec, unsigned threads, SpanRecorder *rec,
         telemetry::MetricsRegistry *metrics)
{
    SweepRunner runner(threads);
    runner.setSupervisor(supervision());
    Sweep s;
    if (rec) {
        runner.setMetrics(metrics);
        runner.setJobObserver([&s, rec](const SweepJob &,
                                        const RunResult &,
                                        const SweepRunner::JobProgress &p) {
            s.completions.emplace_back(rec->now(), p.index);
        });
        s.startNs = rec->now();
    }
    const auto t0 = Clock::now();
    s.outcome = runner.run(spec);
    s.seconds = secondsSince(t0);
    if (rec)
        s.endNs = rec->now();
    return s;
}

struct JobSpans
{
    std::vector<double> seconds; ///< per job, spec order
    std::int64_t lastStartNs = 0; ///< when the queue ran dry
};

/** Record one root span per job (id = job index). */
JobSpans
recordJobSpans(const Sweep &s, unsigned threads, SpanRecorder &rec)
{
    const std::size_t jobs = s.outcome.results.size();
    std::vector<std::int64_t> end(jobs, s.endNs);
    for (const auto &[t, idx] : s.completions)
        end[idx] = t;
    std::vector<std::int64_t> freed;
    for (const auto &c : s.completions)
        freed.push_back(c.first);
    std::sort(freed.begin(), freed.end());
    JobSpans out;
    for (std::size_t i = 0; i < jobs; ++i) {
        const std::int64_t start =
            i < threads ? s.startNs : freed[i - threads];
        rec.timed("sweep.job", "exec", i, -1, start, end[i]);
        out.seconds.push_back(static_cast<double>(end[i] - start) / 1e9);
        out.lastStartNs = std::max(out.lastStartNs, start);
    }
    return out;
}

} // namespace

void
runSweep4(const Args &args, Report &report)
{
    const MachineConfig machine = quadMachine(args);
    const std::vector<Workload> mixes = suites::quadCore();
    report.note("mixes", mixes.size());
    report.note("instr_budget", machine.instrBudget);

    const SweepSpec spec = makeSpec(machine, mixes);
    report.note("jobs_per_sweep", spec.jobs.size());

    bool all_done = true;
    bool same_hash = true;
    std::uint64_t hash = 0;
    double quality = 0.0;
    std::vector<double> sweep_s;
    const auto account = [&](const Sweep &s) {
        const std::uint64_t done = s.outcome.countState(JobState::Done);
        report.attempted += s.outcome.results.size();
        report.failed += s.outcome.results.size() - done;
        all_done = all_done && done == s.outcome.results.size();
        const std::uint64_t h = resultsHash(s.outcome);
        if (sweep_s.empty()) {
            hash = h;
            quality = normAntt(s.outcome);
        } else if (h != hash) {
            same_hash = false;
        }
        sweep_s.push_back(s.seconds);
    };
    const auto finishChecks = [&] {
        report.check("sweep.all_done", all_done,
                     "every job of every sweep ends Done");
        report.check("sweep.repeatable", same_hash,
                     "results hash identical across sweeps");
        report.check("sweep.norm_antt_finite", std::isfinite(quality),
                     "geomean ANTT(PriSM-H)/ANTT(LRU) is finite");
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(hash));
        report.note("results_hash", buf);
        report.note("sweeps", sweep_s.size());
        report.note("norm_antt", quality);
    };

    if (!args.trace) {
        SetupTimer setup;
        const auto t_start = Clock::now();
        while (sweep_s.size() < 3 ||
               secondsSince(t_start) + median(sweep_s) <= args.seconds) {
            setup.sample(3, 200, [&] {
                const SweepSpec s = makeSpec(machine, mixes);
                SweepRunner runner(args.threads);
                runner.setSupervisor(supervision());
            });
            account(runSweep(spec, args.threads, nullptr, nullptr));
        }
        finishChecks();
        report.note("latency_samples", sweep_s.size());
        report.metric("throughput",
                      static_cast<double>(spec.jobs.size()) /
                          median(sweep_s),
                      "1/s");
        report.metric("latency_p50_ms", median(sweep_s) * 1e3, "ms");
        report.metric("latency_p90_ms", quantile(sweep_s, 0.90) * 1e3, "ms");
        report.metric("quality", quality, "ratio");
        report.metric("setup_s", setup.median(), "s");
        report.note("setup_samples", setup.samples());
        return;
    }

    // Pairs of one untraced and one traced sweep while time remains.
    SpanRecorder rec;
    telemetry::MetricsRegistry metrics;
    std::vector<double> untraced_s, traced_s, job_s;
    double busy = 0.0, wall = 0.0, tail = 0.0;
    std::uint64_t retries = 0;
    std::vector<std::pair<std::int64_t, std::int64_t>> traced_windows;
    const auto t_start = Clock::now();
    while (traced_s.empty() ||
           secondsSince(t_start) + median(untraced_s) + median(traced_s) <=
               args.seconds * 0.75) {
        const Sweep untraced = runSweep(spec, args.threads, nullptr, nullptr);
        account(untraced);
        untraced_s.push_back(untraced.seconds);
        const Sweep traced = runSweep(spec, args.threads, &rec, &metrics);
        account(traced);
        traced_s.push_back(traced.seconds);
        traced_windows.emplace_back(traced.startNs, traced.endNs);

        const JobSpans spans = recordJobSpans(traced, args.threads, rec);
        job_s.insert(job_s.end(), spans.seconds.begin(),
                     spans.seconds.end());
        for (const double d : spans.seconds)
            busy += d;
        wall += traced.seconds;
        tail += static_cast<double>(traced.endNs - spans.lastStartNs) / 1e9;
        retries += traced.outcome.retriedAttempts();
    }
    finishChecks();
    // Busy time as the sweep engine measures it: its "sweep.job" span
    // covers each job's whole supervised execution on its worker.
    const double measured_busy =
        static_cast<double>(metrics.span("sweep.job").wallNanos->value()) /
        1e9;
    report.metric("exec.pool_util", measured_busy / (wall * args.threads),
                  "fraction");
    report.note("rebuilt_job_spans_busy_over_measured",
                measured_busy > 0 ? busy / measured_busy : 0.0);
    report.metric("exec.tail_frac", tail / wall, "fraction");
    report.metric("exec.job_s_p50", median(job_s), "s");
    report.metric("exec.job_s_max",
                  *std::max_element(job_s.begin(), job_s.end()), "s");
    report.metric("exec.retries", static_cast<double>(retries), "count");

    // Stand-alone references, alone on one thread with a fresh memo.
    Runner runner(machine);
    {
        std::set<std::string> benches;
        for (const Workload &w : mixes)
            benches.insert(w.benchmarks.begin(), w.benchmarks.end());
        const auto t0 = Clock::now();
        for (const std::string &b : benches)
            runner.standaloneIpc(b);
        report.metric("exec.standalone_s", secondsSince(t0), "s");
        report.note("standalone_sims", benches.size());
    }

    // Q1 under each scheme: the real job, then its traced replay.
    const double timer_ns = calibrateTimerNs();
    std::vector<ReplayOutcome> replays;
    std::vector<std::string> hook_layers;
    double real_s = 0.0, replay_s = 0.0;
    std::string mismatch;
    for (const SchemeKind kind : kSchemes) {
        std::ostringstream stats;
        SchemeOptions options;
        options.statsJsonSink = &stats;
        const auto t0 = Clock::now();
        const RunResult real = runner.run(mixes.front(), kind, options);
        real_s += secondsSince(t0);
        const char *hooks =
            kind == SchemeKind::PrismH ? "plane" : "policies";
        replays.push_back(replaySystem(machine, mixes.front(), kind, hooks,
                                       timer_ns, kSampleEvery, rec));
        hook_layers.emplace_back(hooks);
        replay_s += replays.back().wallSeconds;
        const std::string m = compareReplay(replays.back(), stats.str(),
                                            real);
        if (!m.empty() && mismatch.empty())
            mismatch = std::string(schemeName(kind)) + ": " + m;
    }
    report.check("sim.replay_matches", mismatch.empty(),
                 mismatch.empty()
                     ? "Q1 replays reproduce System::run under all four "
                       "schemes"
                     : "mismatch: " + mismatch);

    double replay_wall_ns = 0.0, outside_ns = 0.0;
    for (const ReplayOutcome &r : replays) {
        replay_wall_ns += static_cast<double>(r.endNs - r.startNs);
        outside_ns += rec.unattributedNs(r.startNs, r.endNs);
    }
    reportSimLayers(replays, hook_layers, rec, replay_wall_ns, report);
    // The job spans tile each sweep window by construction (FIFO pool),
    // so the replays are where coverage is measured.
    checkSimCoverage(replays, report);
    double traced_wall_ns = replay_wall_ns;
    for (const auto &[from, to] : traced_windows) {
        outside_ns += rec.unattributedNs(from, to);
        traced_wall_ns += static_cast<double>(to - from);
    }
    report.metric("telemetry.unattributed_frac",
                  outside_ns / traced_wall_ns, "fraction");
    report.metric("telemetry.trace_overhead_frac",
                  (median(traced_s) + replay_s) /
                          (median(untraced_s) + real_s) -
                      1.0,
                  "fraction");
    report.note("timer_ns", timer_ns);
    if (!args.spansOut.empty() && !rec.write(args.spansOut, "sweep4"))
        report.check("trace.spans_written", false, args.spansOut);
}

} // namespace perfbench
