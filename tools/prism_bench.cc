/**
 * @file
 * prism_bench: unified driver for every figure-reproduction sweep.
 *
 * `prism_bench <figure-id>` runs one figure of the registry
 * (bench/figures.hh), whose figures are declarative sweep specs,
 * across a thread pool with deterministic per-job seeding — the
 * tables and the BENCH_<id>.json files are bit-identical at every
 * --threads value (timing fields aside). See docs/BENCHMARKING.md.
 *
 * Every sweep runs supervised (docs/RELIABILITY.md): failing jobs
 * are retried with deterministic backoff and quarantined after
 * their attempt budget, so a sweep always completes with a
 * salvaged-vs-failed manifest. `--ckpt FILE` makes the run
 * crash-safe — a killed or interrupted sweep resumes with `--resume`
 * and merges to byte-identical output. SIGINT/SIGTERM flush a final
 * checkpoint before exiting.
 */

#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/cancel.hh"
#include "common/parse.hh"
#include "common/stop_signal.hh"
#include "figures.hh"

namespace
{

/**
 * Parse a count flag: a base-10 integer in [@p min, @p max].
 * @return false after naming the bad value on stderr.
 */
template <typename T>
bool
parseCountArg(const std::string &flag, const std::string &value,
              T &out, std::type_identity_t<T> min = 0,
              std::type_identity_t<T> max = std::numeric_limits<T>::max())
{
    std::uint64_t n = 0;
    if (!prism::parseU64(value, n) || n < min || n > max) {
        std::cerr << flag << " must be an integer in [" << min << ", "
                  << max << "], got '" << value << "'\n";
        return false;
    }
    out = static_cast<T>(n);
    return true;
}

/**
 * Parse a --deadline value: seconds (<= 0: no watchdog) that are
 * finite and within the steady clock's range.
 * @return false after naming the bad value on stderr.
 */
bool
parseDeadlineArg(const std::string &value, double &seconds)
{
    double s = 0.0;
    if (!prism::parseDouble(value, s) ||
        !prism::deadlineAfter(std::chrono::steady_clock::now(), s)) {
        std::cerr << "--deadline must be a finite number of seconds "
                     "within the clock's range, got '"
                  << value << "'\n";
        return false;
    }
    seconds = s;
    return true;
}

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
       << "\n"
       << "fault tolerance (docs/RELIABILITY.md):\n"
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
       << "(0 = all). A malformed value is a usage error.\n";
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
            if (!parseCountArg(arg, value(), options.threads))
                return 2;
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
            if (!parseCountArg(arg, value(), options.traceCapacity, 1))
                return 2;
        } else if (arg == "--progress") {
            options.progress = true;
        } else if (arg == "--doctor") {
            options.doctor = true;
        } else if (arg == "--doctor-json") {
            options.doctorJsonPath = value();
            options.doctor = true;
        } else if (arg == "--retries") {
            // Below UINT_MAX so the attempt budget (retries + 1)
            // cannot wrap.
            if (!parseCountArg(arg, value(), options.retries, 0,
                               UINT_MAX - 1))
                return 2;
        } else if (arg == "--deadline") {
            if (!parseDeadlineArg(value(), options.deadlineSeconds))
                return 2;
        } else if (arg == "--chaos") {
            options.chaosSpec = value();
        } else if (arg == "--chaos-seed") {
            if (!parseCountArg(arg, value(), options.chaosSeed))
                return 2;
        } else if (arg == "--ckpt") {
            options.ckptPath = value();
        } else if (arg == "--ckpt-every") {
            if (!parseCountArg(arg, value(), options.ckptEvery, 1))
                return 2;
        } else if (arg == "--resume") {
            options.resume = true;
        } else if (arg == "--die-after") {
            // Undocumented test hook: SIGKILL after the Nth executed
            // job's checkpoint flush (tests/test_resume.cc).
            if (!parseCountArg(arg, value(), options.dieAfter))
                return 2;
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
        // Interrupted (state is checkpointed) or a bad option that
        // every later figure would hit too: stop the batch.
        if (fig_rc == 130 || fig_rc == 2)
            return fig_rc;
        rc |= fig_rc;
    }
    return rc;
}
