/**
 * @file
 * prism_doctor — control-loop diagnostics for PriSM runs.
 *
 * Consumes a recorded run (a `prism-stats-v1` statistics dump, a
 * `prism-trace-v1` Chrome trace, a `prism-bench-v1` sweep file, a
 * `prism-metrics-v1` snapshot — the final one of a prism_serve run
 * grades the whole session — or a `prism-ckpt-v1` checkpoint; the
 * schema is auto-detected, and a checkpoint is recognised by its
 * `*.ckpt.json` name or forced with `--ckpt`), or executes one fresh
 * simulation in-process (`--run "<prism_sim flags>"`), and prints a
 * health report: occupancy-tracking convergence,
 * eviction-distribution stability, invariant drift, QoS/fairness
 * attainment and the robustness counters. Bench documents also grade
 * the exec manifest (docs/RELIABILITY.md): retried/timed-out jobs
 * WARN, quarantined jobs and corrupt checkpoints FAIL. With `--json`
 * the same findings are written as a deterministic `prism-doctor-v1`
 * document.
 *
 * `--compare A.json B.json` switches to regression mode: two
 * `prism-bench-v1` files are diffed metric-by-metric under relative
 * tolerances — the CI perf gate (tools/ci_gate.sh) runs the fixture
 * sweep and compares it against tests/golden/BENCH_fixture.json.
 *
 * Examples:
 *   prism_doctor stats.json
 *   prism_doctor trace.json
 *   prism_doctor --run "--workload Q7 --scheme PriSM-H"
 *   prism_doctor --compare golden.json fresh.json --tolerance ipc=1e-6
 *
 * Exit codes: 0 overall PASS or WARN, 1 overall FAIL, 2 usage or
 * input error.
 */

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/compare.hh"
#include "analysis/doctor.hh"
#include "analysis/run_spec.hh"
#include "analysis/series.hh"
#include "common/atomic_file.hh"
#include "common/parse.hh"
#include "exec/checkpoint.hh"

using namespace prism;
using namespace prism::analysis;

namespace
{

void
usage(std::ostream &os)
{
    os <<
        "usage: prism_doctor [FILE] [options]\n"
        "       prism_doctor --compare BASELINE CANDIDATE [options]\n"
        "  FILE                 prism-stats-v1, prism-trace-v1,\n"
        "                       prism-bench-v1 or prism-metrics-v1\n"
        "                       JSON (auto-detected from its schema)\n"
        "  --ckpt FILE          validate a prism-ckpt-v1 sweep\n"
        "                       checkpoint (*.ckpt.json paths are\n"
        "                       auto-detected); a corrupt file is a\n"
        "                       FAIL verdict, not an input error\n"
        "  --run \"FLAGS\"        simulate one run in-process and\n"
        "                       diagnose it (prism_sim run flags:\n"
        "                       --cores/--workload/--mix/--scheme/\n"
        "                       --repl/--instr/--warmup/--interval/\n"
        "                       --seed/--bits/--qos-frac/--faults/\n"
        "                       --checked)\n"
        "  --compare A B        diff two prism-bench-v1 files\n"
        "  --tolerance X        global relative tolerance for\n"
        "                       --compare (default 0 = exact)\n"
        "  --tolerance N=X      per-metric override (repeatable),\n"
        "                       e.g. --tolerance ipc=1e-6\n"
        "  --json PATH          write the prism-doctor-v1 verdict\n"
        "                       document ('-' for stdout)\n"
        "  --quiet              suppress the human-readable report\n";
}

[[noreturn]] void
cliError(const std::string &msg)
{
    std::cerr << "prism_doctor: " << msg << "\n\n";
    usage(std::cerr);
    std::exit(2);
}

/** Read and parse @p path; exits with code 2 on failure. */
JsonValue
loadJson(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "prism_doctor: cannot read " << path << "\n";
        std::exit(2);
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    JsonValue doc;
    if (const Status st = parseJson(buf.str(), doc); !st.ok()) {
        std::cerr << "prism_doctor: " << path << ": " << st.message()
                  << "\n";
        std::exit(2);
    }
    return doc;
}

enum class InputKind
{
    Stats,
    Trace,
    Bench,
    Metrics,
};

struct Options
{
    std::string file;
    bool ckpt = false; ///< --ckpt: validate FILE as a checkpoint
    std::string run;
    std::string compare_a, compare_b;
    bool compare = false;
    CompareOptions compare_opts;
    std::string json_path;
    bool quiet = false;
};

InputKind
detectKind(const JsonValue &doc, const std::string &path)
{
    const std::string &schema = doc.at("schema").asString();
    if (schema == "prism-stats-v1")
        return InputKind::Stats;
    if (schema == "prism-bench-v1")
        return InputKind::Bench;
    if (schema == "prism-metrics-v1")
        return InputKind::Metrics;
    if (doc.at("otherData").at("schema").asString() ==
        "prism-trace-v1")
        return InputKind::Trace;
    std::cerr << "prism_doctor: " << path
              << ": unrecognised document (expected prism-stats-v1, "
                 "prism-trace-v1, prism-bench-v1 or "
                 "prism-metrics-v1)\n";
    std::exit(2);
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

/**
 * Validate a sweep checkpoint. Unlike the other inputs, a corrupt
 * file here is the finding itself (the atomic-write path exists
 * exactly to prevent it), so it yields a FAIL verdict and exit 1
 * rather than a usage error.
 */
Verdict
checkCheckpoint(const std::string &path)
{
    Verdict v;
    v.run = "exec";
    Finding f;
    f.check = "exec.checkpoint";
    CheckpointData data;
    if (const Status st = loadCheckpoint(path, data); !st.ok()) {
        f.status = FindingStatus::Fail;
        f.detail = st.message();
    } else {
        f.status = FindingStatus::Pass;
        f.detail = std::to_string(data.jobs.size()) +
                   " completed job(s) of sweep '" + data.sweep +
                   "' (fingerprint " + data.fingerprint + ")";
        f.value = static_cast<double>(data.jobs.size());
        f.hasValue = true;
    }
    v.findings.push_back(std::move(f));
    v.overall = v.findings.back().status;
    return v;
}

/** The verdict for a bench job that carries an "error" object
 * (quarantined or skipped) instead of a result. */
Verdict
failedBenchJob(const JsonValue &job)
{
    const JsonValue &error = job.at("error");
    const auto &failures = error.at("failures").elements();
    return failedJobVerdict(
        job.at("id").asString(),
        error.at("state").asString() == "skipped",
        error.at("attempts").asU64(),
        failures.empty() ? ""
                         : failures.back().at("message").asString());
}

/** Simulate the --run spec and build its series view. */
RunSeries
runAndRecord(const std::string &spec_text)
{
    RunSpec spec;
    if (const Status st = parseRunSpec(spec_text, spec); !st.ok())
        cliError("--run: " + st.message());

    spec.options.telemetry.enabled = true;
    spec.options.telemetry.capacity = 4096;

    Runner runner(spec.machine);
    const RunResult res =
        runner.run(spec.workload, spec.scheme, spec.options);

    RunSeries s = seriesFromRecorder(
        *res.recorder, spec.workload.name + "/" + res.scheme);
    attachRunResult(s, res);
    s.qosTargetFrac = spec.scheme == SchemeKind::PrismQ
                          ? spec.options.qosTargetFrac
                          : 0.0;
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                cliError("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else if (arg == "--ckpt") {
            opt.file = value();
            opt.ckpt = true;
        } else if (arg == "--run") {
            opt.run = value();
        } else if (arg == "--compare") {
            opt.compare = true;
        } else if (arg == "--tolerance") {
            const std::string v = value();
            const std::size_t eq = v.find('=');
            const std::string num =
                eq == std::string::npos ? v : v.substr(eq + 1);
            // A NaN tolerance would pass every drift: rel > NaN is
            // false.
            double tol = 0.0;
            if (!parseDouble(num, tol) || !std::isfinite(tol) ||
                tol < 0.0)
                cliError("invalid tolerance '" + v + "'");
            if (eq == std::string::npos)
                opt.compare_opts.relTolerance = tol;
            else
                opt.compare_opts.metricTolerance[v.substr(0, eq)] =
                    tol;
        } else if (arg == "--json") {
            opt.json_path = value();
        } else if (arg == "--quiet") {
            opt.quiet = true;
        } else if (!arg.empty() && arg[0] == '-') {
            cliError("unknown option '" + arg + "'");
        } else {
            positional.push_back(arg);
        }
    }

    std::string source;
    std::vector<Verdict> jobs;

    if (opt.compare) {
        if (positional.size() != 2)
            cliError("--compare needs exactly two files");
        if (!opt.run.empty() || !opt.file.empty())
            cliError("--compare cannot combine with other inputs");
        const JsonValue a = loadJson(positional[0]);
        const JsonValue b = loadJson(positional[1]);
        source = "compare";
        jobs.push_back(compareBenchDocs(a, b, opt.compare_opts));
    } else if (!opt.run.empty()) {
        if (!opt.file.empty() || !positional.empty())
            cliError("--run cannot combine with file inputs");
        source = "run";
        jobs.push_back(analyze(runAndRecord(opt.run)));
    } else {
        if (opt.file.empty()) {
            if (positional.size() != 1) {
                if (positional.empty())
                    cliError("no input given");
                cliError("more than one input file given");
            }
            opt.file = positional[0];
        } else if (!positional.empty()) {
            cliError("more than one input file given");
        }

        // Checkpoints are validated before JSON parsing: a torn
        // write must surface as a FAIL verdict, not an exit-2
        // parse error.
        if (opt.ckpt || endsWith(opt.file, ".ckpt.json")) {
            source = "ckpt";
            jobs.push_back(checkCheckpoint(opt.file));
        } else {
            const JsonValue doc = loadJson(opt.file);
            Status st;
            switch (detectKind(doc, opt.file)) {
              case InputKind::Stats: {
                source = "stats";
                RunSeries s;
                st = seriesFromStatsJson(doc, s);
                if (st.ok())
                    jobs.push_back(analyze(s));
                break;
              }
              case InputKind::Metrics: {
                source = "metrics";
                RunSeries s;
                st = seriesFromMetricsJson(doc, s);
                if (st.ok())
                    jobs.push_back(analyze(s));
                break;
              }
              case InputKind::Trace: {
                source = "trace";
                std::vector<RunSeries> runs;
                st = seriesFromTraceJson(doc, runs);
                for (const RunSeries &s : runs)
                    jobs.push_back(analyze(s));
                // A supervised sweep's trace records its failed jobs
                // and retries in the exec process; grade them as the
                // BENCH path does.
                ExecSeries exec_series;
                if (st.ok() &&
                    execSeriesFromTraceJson(doc, exec_series)) {
                    for (std::size_t i = 0;
                         i < exec_series.failedIds.size(); ++i)
                        jobs.push_back(failedJobVerdict(
                            exec_series.failedIds[i], false,
                            exec_series.failedAttempts[i], ""));
                    jobs.push_back(analyzeExec(exec_series));
                }
                break;
              }
              case InputKind::Bench: {
                source = "bench";
                for (const JsonValue &job :
                     doc.at("jobs").elements()) {
                    // Quarantined/skipped jobs carry an "error"
                    // object instead of a result; report the
                    // execution failure directly.
                    if (job.at("error").isObject()) {
                        jobs.push_back(failedBenchJob(job));
                        continue;
                    }
                    RunSeries s;
                    st = seriesFromBenchJob(job, s);
                    if (!st.ok())
                        break;
                    jobs.push_back(analyze(s));
                }
                // Supervised sweeps with retries/quarantines also
                // carry an exec manifest; diagnose it too.
                ExecSeries exec_series;
                if (st.ok() &&
                    execSeriesFromBenchDoc(doc, exec_series))
                    jobs.push_back(analyzeExec(exec_series));
                break;
              }
            }
            if (!st.ok()) {
                std::cerr << "prism_doctor: " << opt.file << ": "
                          << st.message() << "\n";
                return 2;
            }
        }
    }

    if (!opt.quiet) {
        for (const Verdict &v : jobs)
            printReport(std::cout, v);
        if (jobs.size() > 1) {
            const Verdict sweep = rollup(jobs);
            printReport(std::cout, sweep);
        }
    }

    if (!opt.json_path.empty()) {
        if (opt.json_path == "-") {
            writeDoctorDocument(std::cout, source, jobs);
        } else {
            const Status st = writeFileAtomic(
                opt.json_path, [&](std::ostream &out) {
                    writeDoctorDocument(out, source, jobs);
                });
            if (!st.ok()) {
                std::cerr << "prism_doctor: cannot write "
                          << opt.json_path << ": " << st.message()
                          << "\n";
                return 2;
            }
        }
    }

    return worstOf(jobs) == FindingStatus::Fail ? 1 : 0;
}
