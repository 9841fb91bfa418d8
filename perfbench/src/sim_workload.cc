/**
 * @file
 * Workload sim32: one 32-core PriSM-H simulation job, repeated.
 *
 * Untraced: Runner::run of suite mix T1 on MachineConfig::forCores(32)
 * (16 MB, 64-way LLC) under PriSM-H, as nproc concurrent copies, one
 * per thread, each repeating the job. That is how a sweep runs 32-core
 * jobs, and it spreads the measurement over every vCPU: one thread
 * takes the speed of whichever vCPU it lands on, which on a shared
 * host moved its figures by up to a third between sets of runs. The
 * stand-alone reference IPCs are computed once before timing (a
 * shared Runner memo keeps them), so every timed job is the 32-core
 * simulation itself.
 * Traced: pairs of one job and one replay of its step loop, on one
 * thread (the span recorder is single-threaded).
 */

#include <cmath>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "common/json.hh"
#include "sim_replay.hh"
#include "workload/suites.hh"

namespace perfbench
{

using namespace prism;

namespace
{

/** One scheduler step in K, on average, times one layer in the replay. */
constexpr unsigned kSampleEvery = 32;

MachineConfig
sim32Machine(const Args &args)
{
    MachineConfig m = MachineConfig::forCores(32);
    m.instrBudget = args.smoke ? 6'000 : 125'000;
    m.warmupInstr = m.instrBudget / 3;
    m.seed = args.seed;
    return m;
}

std::uint64_t
sumInstructions(const std::string &stats_json)
{
    JsonValue doc;
    if (!parseJson(stats_json, doc).ok())
        return 0;
    std::uint64_t sum = 0;
    for (const JsonValue &core : doc.at("cores").elements())
        sum += core.at("instructions").asU64();
    return sum;
}

/** One timed Runner::run with its stats document. */
struct Job
{
    RunResult result;
    std::string stats;
    double seconds = 0.0;
};

Job
runJob(Runner &runner, const Workload &mix)
{
    std::ostringstream stats;
    SchemeOptions options;
    options.statsJsonSink = &stats;
    const auto t0 = Clock::now();
    Job job;
    job.result = runner.run(mix, SchemeKind::PrismH, options);
    job.seconds = secondsSince(t0);
    job.stats = stats.str();
    return job;
}

/** Model checks on one finished job; "" when all hold. */
std::string
jobProblem(const RunResult &r)
{
    if (r.invariantViolations != 0)
        return std::to_string(r.invariantViolations) +
               " invariant violations";
    if (r.degradedIntervals != 0)
        return std::to_string(r.degradedIntervals) + " degraded intervals";
    if (!std::isfinite(r.antt()))
        return "non-finite ANTT";
    return "";
}

/** One thread's job loop and what its jobs showed. */
struct Worker
{
    Worker(const MachineConfig &machine,
           std::shared_ptr<StandaloneIpcMemo> memo)
        : runner(machine, std::move(memo))
    {
    }

    Runner runner;
    std::vector<double> jobSeconds;
    std::vector<double> tracedSeconds;
    std::vector<ReplayOutcome> replays;
    SetupTimer setup;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string problem; ///< first failure, "" = none
    std::string replayMismatch;
    double antt = 0.0;
    std::uint64_t instructions = 0;
    bool repeatable = true;
};

/**
 * Run jobs on @p w until the run's time is up (at least @p min_jobs).
 * With a recorder, each job is paired with a traced replay.
 */
void
runJobs(Worker &w, const MachineConfig &machine, const Workload &mix,
        double seconds, unsigned min_jobs, Clock::time_point start,
        SpanRecorder *rec, double timer_ns)
{
    for (;;) {
        const double unit =
            w.jobSeconds.empty()
                ? 0.0
                : median(w.jobSeconds) + (w.tracedSeconds.empty()
                                              ? 0.0
                                              : median(w.tracedSeconds));
        if (w.attempted >= min_jobs && secondsSince(start) + unit > seconds)
            break;

        if (!rec)
            w.setup.sample(3, 1, [&] {
                auto scheme = makeScheme(SchemeKind::PrismH, machine);
                System system(machine, mix, scheme.get());
            });
        ++w.attempted;
        Job job;
        try {
            job = runJob(w.runner, mix);
        } catch (const std::exception &e) {
            ++w.failed;
            if (w.problem.empty())
                w.problem = e.what();
            continue;
        }
        const std::string problem = jobProblem(job.result);
        if (!problem.empty()) {
            ++w.failed;
            if (w.problem.empty())
                w.problem = problem;
        }
        const std::uint64_t instr = sumInstructions(job.stats);
        if (w.jobSeconds.empty()) {
            w.antt = job.result.antt();
            w.instructions = instr;
        } else if (job.result.antt() != w.antt || instr != w.instructions) {
            w.repeatable = false;
        }
        w.jobSeconds.push_back(job.seconds);

        if (rec) {
            w.replays.push_back(replaySystem(machine, mix,
                                             SchemeKind::PrismH, "plane",
                                             timer_ns, kSampleEvery, *rec));
            w.tracedSeconds.push_back(w.replays.back().wallSeconds);
            const std::string m =
                compareReplay(w.replays.back(), job.stats, job.result);
            if (!m.empty() && w.replayMismatch.empty())
                w.replayMismatch = m;
        }
    }
}

} // namespace

void
runSim32(const Args &args, Report &report)
{
    const MachineConfig machine = sim32Machine(args);
    const Workload mix = suites::thirtyTwoCore().front();
    report.note("mix", mix.name);
    report.note("instr_budget", machine.instrBudget);
    report.note("warmup_instr", machine.warmupInstr);

    const unsigned threads = args.trace ? 1 : args.threads;
    const auto memo = std::make_shared<StandaloneIpcMemo>();
    std::vector<std::unique_ptr<Worker>> workers;
    for (unsigned t = 0; t < threads; ++t)
        workers.push_back(std::make_unique<Worker>(machine, memo));
    {
        const auto t0 = Clock::now();
        for (const std::string &b :
             std::set<std::string>(mix.benchmarks.begin(),
                                   mix.benchmarks.end()))
            workers.front()->runner.standaloneIpc(b);
        report.note("standalone_s", secondsSince(t0));
    }

    // At least three jobs in all, so that a run has a median.
    const unsigned min_jobs = args.trace ? 1 : (3 + threads - 1) / threads;
    SpanRecorder rec;
    const double timer_ns = args.trace ? calibrateTimerNs() : 0.0;
    const auto t_start = Clock::now();
    if (args.trace) {
        runJobs(*workers.front(), machine, mix, args.seconds, min_jobs,
                t_start, &rec, timer_ns);
    } else {
        std::vector<std::thread> pool;
        for (const auto &w : workers)
            pool.emplace_back([&, w = w.get()] {
                try {
                    runJobs(*w, machine, mix, args.seconds, min_jobs,
                            t_start, nullptr, 0.0);
                } catch (const std::exception &e) {
                    ++w->failed;
                    if (w->problem.empty())
                        w->problem = e.what();
                }
            });
        for (std::thread &t : pool)
            t.join();
    }

    std::vector<double> job_s;
    SetupTimer setup;
    std::string first_problem;
    bool repeatable = true;
    const Worker *first = nullptr;
    for (const auto &w : workers) {
        report.attempted += w->attempted;
        report.failed += w->failed;
        if (first_problem.empty())
            first_problem = w->problem;
        job_s.insert(job_s.end(), w->jobSeconds.begin(),
                     w->jobSeconds.end());
        setup.merge(w->setup);
        if (w->jobSeconds.empty())
            continue;
        if (!first)
            first = w.get();
        repeatable = repeatable && w->repeatable &&
                     w->antt == first->antt &&
                     w->instructions == first->instructions;
    }
    const double antt = first ? first->antt : 0.0;
    const std::uint64_t instructions = first ? first->instructions : 0;
    report.check("sim.model_invariants", first_problem.empty(),
                 first_problem.empty()
                     ? "0 invariant violations, 0 degraded intervals, "
                       "finite ANTT"
                     : first_problem);
    report.check("sim.repeatable", repeatable,
                 "every job reproduces ANTT and instruction count");
    report.note("concurrent_jobs", threads);
    report.note("jobs", job_s.size());
    report.note("antt", antt);
    report.note("instructions_per_job", instructions);

    if (!args.trace) {
        report.note("latency_samples", job_s.size());
        report.metric("throughput",
                      static_cast<double>(instructions) / median(job_s),
                      "1/s");
        report.metric("latency_p50_ms", median(job_s) * 1e3, "ms");
        report.metric("latency_p90_ms", quantile(job_s, 0.90) * 1e3, "ms");
        report.metric("quality", antt, "ratio");
        report.metric("setup_s", setup.median(), "s");
        report.note("setup_samples", setup.samples());
        return;
    }

    const Worker &w = *workers.front();
    if (w.replays.empty()) {
        report.check("sim.replay_matches", false, "no job completed");
        return;
    }
    report.check("sim.replay_matches", w.replayMismatch.empty(),
                 w.replayMismatch.empty()
                     ? "replayed step loop reproduces System::run's "
                       "per-core hits, misses, cycles and intervals"
                     : "mismatch: " + w.replayMismatch);
    double wall_ns = 0.0;
    double outside_ns = 0.0;
    for (const ReplayOutcome &r : w.replays) {
        wall_ns += static_cast<double>(r.endNs - r.startNs);
        outside_ns += rec.unattributedNs(r.startNs, r.endNs);
    }
    reportSimLayers(w.replays,
                    std::vector<std::string>(w.replays.size(), "plane"),
                    rec, wall_ns, report);
    checkSimCoverage(w.replays, report);
    report.metric("telemetry.trace_overhead_frac",
                  median(w.tracedSeconds) / median(w.jobSeconds) - 1.0,
                  "fraction");
    report.metric("telemetry.unattributed_frac",
                  wall_ns > 0 ? outside_ns / wall_ns : 0.0, "fraction");
    report.note("timer_ns", timer_ns);
    report.note("sample_every", kSampleEvery);
    if (!args.spansOut.empty() && !rec.write(args.spansOut, "sim32"))
        report.check("trace.spans_written", false, args.spansOut);
}

} // namespace perfbench
