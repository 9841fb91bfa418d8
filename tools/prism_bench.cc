/**
 * @file
 * prism_bench: unified driver for every figure-reproduction sweep.
 *
 * Replaces the per-figure main() boilerplate: figures are declarative
 * sweep specs in the registry (bench/figures.hh), executed here across
 * a thread pool with deterministic per-job seeding — the tables and
 * the BENCH_<id>.json files are bit-identical at every --threads
 * value (timing fields aside). See docs/BENCHMARKING.md.
 *
 * Sweeps run supervised by default (docs/RELIABILITY.md): failing
 * jobs are retried with deterministic backoff and quarantined after
 * their attempt budget, so a sweep always completes with a
 * salvaged-vs-failed manifest. `--ckpt FILE` makes the run
 * crash-safe — a killed or interrupted sweep resumes with `--resume`
 * and merges to byte-identical output. SIGINT/SIGTERM flush a final
 * checkpoint before exiting.
 */

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/stop_signal.hh"
#include "figures.hh"

namespace
{

int
usage(std::ostream &os, const char *argv0)
{
    os << "usage: " << argv0 << " [options] [figure-id ...]\n"
       << "\n"
       << "  --all          run every listed figure\n"
       << "  --list         print the figure ids and exit\n"
       << "  --threads N    parallel sweep workers (default 1)\n"
       << "  --out DIR      directory for BENCH_*.json (default .)\n"
       << "  --no-json      tables only\n"
       << "  --no-timing    omit wall-clock JSON fields\n"
       << "  --trace PATH   record every job's interval time series\n"
       << "                 and write one Chrome trace JSON (single\n"
       << "                 figure only; byte-identical at any\n"
       << "                 --threads value)\n"
       << "  --trace-csv PATH\n"
       << "                 the same series as flat CSV\n"
       << "  --trace-capacity N\n"
       << "                 intervals retained per job (default 4096)\n"
       << "  --progress     per-job completion heartbeat on stderr\n"
       << "                 (job key, done/total, intervals, degraded\n"
       << "                 count; completion-ordered, no wall-clock)\n"
       << "  --doctor       run the control-loop diagnostics on every\n"
       << "                 job after the sweep and print one verdict\n"
       << "                 per job plus a roll-up; exit 1 on FAIL\n"
       << "  --doctor-json PATH\n"
       << "                 write the verdicts as a prism-doctor-v1\n"
       << "                 document (implies --doctor; single figure\n"
       << "                 only; byte-identical at any --threads)\n"
       << "  --metrics-out PATH\n"
       << "                 maintain a prism-metrics-v1 snapshot of\n"
       << "                 sweep progress (single figure only; the\n"
       << "                 final snapshot is byte-identical at any\n"
       << "                 --threads value)\n"
       << "  --metrics-prom PATH\n"
       << "                 the same snapshot as Prometheus text\n"
       << "  --metrics-every N\n"
       << "                 refresh the snapshot every N completed\n"
       << "                 jobs (completion-ordered, like\n"
       << "                 --progress; 0 = final snapshot only)\n"
       << "\n"
       << "fault tolerance (docs/RELIABILITY.md):\n"
       << "  --no-supervise raw execution: no retry, no quarantine;\n"
       << "                 a throwing job aborts the process\n"
       << "  --retries N    retries per job after the first attempt\n"
       << "                 (default 2; transients and timeouts only)\n"
       << "  --deadline S   per-attempt deadline in seconds; stalled\n"
       << "                 jobs are cancelled and retried (default:\n"
       << "                 no watchdog)\n"
       << "  --chaos SPEC   inject exec-level faults, e.g.\n"
       << "                 'job_crash@3*1,alloc_fail@4' — kind@job\n"
       << "                 [+phase][*attempts]; kinds: job_crash,\n"
       << "                 job_stall, torn_write, alloc_fail\n"
       << "  --chaos-seed N seed for backoff jitter (results never\n"
       << "                 depend on it)\n"
       << "  --ckpt FILE    crash-safe checkpoint (*.ckpt.json):\n"
       << "                 completed jobs are flushed atomically so\n"
       << "                 a killed run can resume (single figure\n"
       << "                 only)\n"
       << "  --ckpt-every N flush cadence in completed jobs\n"
       << "                 (default 1)\n"
       << "  --resume       restore completed jobs from --ckpt FILE;\n"
       << "                 the merged output is byte-identical to an\n"
       << "                 uninterrupted run\n"
       << "\n"
       << "environment: PRISM_BENCH_SCALE multiplies instruction\n"
       << "budgets; PRISM_BENCH_WORKLOADS caps workloads per suite\n"
       << "(0 = all).\n";
    return &os == &std::cerr ? 2 : 0;
}

void
list(std::ostream &os)
{
    for (const auto &fig : prism::bench::figureRegistry())
        if (fig.listed)
            os << fig.id << "\n              " << fig.title << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace prism::bench;

    FigureRunOptions options;
    bool run_all = false;
    std::vector<std::string> ids;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << arg << "\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            return usage(std::cout, argv[0]);
        } else if (arg == "--list") {
            list(std::cout);
            return 0;
        } else if (arg == "--all") {
            run_all = true;
        } else if (arg == "--threads") {
            options.threads =
                static_cast<unsigned>(std::atoi(value().c_str()));
        } else if (arg == "--out") {
            options.outDir = value();
        } else if (arg == "--no-json") {
            options.writeJson = false;
        } else if (arg == "--no-timing") {
            options.includeTiming = false;
        } else if (arg == "--trace") {
            options.tracePath = value();
        } else if (arg == "--trace-csv") {
            options.traceCsvPath = value();
        } else if (arg == "--trace-capacity") {
            const long n = std::atol(value().c_str());
            if (n <= 0) {
                std::cerr << "--trace-capacity must be at least 1\n";
                return 2;
            }
            options.traceCapacity = static_cast<std::size_t>(n);
        } else if (arg == "--progress") {
            options.progress = true;
        } else if (arg == "--doctor") {
            options.doctor = true;
        } else if (arg == "--doctor-json") {
            options.doctorJsonPath = value();
            options.doctor = true;
        } else if (arg == "--metrics-out") {
            options.metricsOutPath = value();
        } else if (arg == "--metrics-prom") {
            options.metricsPromPath = value();
        } else if (arg == "--metrics-every") {
            options.metricsEvery =
                std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--no-supervise") {
            options.supervise = false;
        } else if (arg == "--retries") {
            if (!parseRetriesArg(value(), options.retries))
                return 2;
        } else if (arg == "--deadline") {
            if (!parseDeadlineArg(value(), options.deadlineSeconds))
                return 2;
        } else if (arg == "--chaos") {
            options.chaosSpec = value();
        } else if (arg == "--chaos-seed") {
            options.chaosSeed =
                std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--ckpt") {
            options.ckptPath = value();
        } else if (arg == "--ckpt-every") {
            const long n = std::atol(value().c_str());
            if (n <= 0) {
                std::cerr << "--ckpt-every must be at least 1\n";
                return 2;
            }
            options.ckptEvery = static_cast<unsigned>(n);
        } else if (arg == "--resume") {
            options.resume = true;
        } else if (arg == "--die-after") {
            // Undocumented test hook: SIGKILL after the Nth executed
            // job's checkpoint flush (tests/test_resume.cc).
            options.dieAfter =
                static_cast<unsigned>(std::atoi(value().c_str()));
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "unknown option '" << arg << "'\n";
            return usage(std::cerr, argv[0]);
        } else {
            ids.push_back(arg);
        }
    }

    if (run_all) {
        for (const auto &fig : figureRegistry())
            if (fig.listed)
                ids.push_back(fig.id);
    }
    if (ids.empty()) {
        std::cerr << "no figures selected\n";
        return usage(std::cerr, argv[0]);
    }
    if (ids.size() > 1 && (!options.tracePath.empty() ||
                           !options.traceCsvPath.empty())) {
        std::cerr << "--trace/--trace-csv write one file: select a "
                     "single figure\n";
        return 2;
    }
    if (ids.size() > 1 && !options.doctorJsonPath.empty()) {
        std::cerr << "--doctor-json writes one file: select a single "
                     "figure\n";
        return 2;
    }
    if (ids.size() > 1 && (!options.metricsOutPath.empty() ||
                           !options.metricsPromPath.empty())) {
        std::cerr << "--metrics-out/--metrics-prom write one file: "
                     "select a single figure\n";
        return 2;
    }
    if (options.metricsEvery > 0 &&
        options.metricsOutPath.empty() &&
        options.metricsPromPath.empty()) {
        std::cerr << "--metrics-every needs --metrics-out or "
                     "--metrics-prom\n";
        return 2;
    }
    if (options.resume && options.ckptPath.empty()) {
        std::cerr << "--resume requires --ckpt FILE\n";
        return 2;
    }
    if (ids.size() > 1 && !options.ckptPath.empty()) {
        std::cerr << "--ckpt writes one file: select a single "
                     "figure\n";
        return 2;
    }

    // A stop request drains the sweep cooperatively: queued jobs are
    // skipped, running attempts cancel at their next poll, and the
    // checkpoint (when configured) gets a final flush before exit.
    // The handler is the shared one prism_serve installs too
    // (common/stop_signal.hh); both drivers exit 130 after their
    // final flushes.
    prism::installStopHandlers();
    options.stopFlag = &prism::stopRequested();

    int rc = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const Figure *fig = findFigure(ids[i]);
        if (!fig) {
            std::cerr << "unknown figure id '" << ids[i]
                      << "' (see --list)\n";
            return 2;
        }
        if (i > 0)
            std::cout << "\n";
        const int fig_rc = runFigure(*fig, options);
        rc |= fig_rc;
        if (fig_rc == 130) {
            // Interrupted: state is checkpointed, stop the batch.
            rc = 130;
            break;
        }
    }
    return rc;
}
