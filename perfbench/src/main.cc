/**
 * @file
 * perfbench: run one benchmark workload and print its report.
 *
 *   perfbench --workload sim32|sweep4|serve_write
 *             --seed N --seconds S --trace 0|1
 *             [--smoke] [--spans-out PATH]
 *
 * Writes one JSON document to stdout: the metrics (end-to-end with
 * --trace 0; with --trace 1 the per-layer metrics of the layers the
 * workload runs), every correctness check with
 * its outcome, attempted/failed operation counts, the build
 * fingerprint and free-form run context. Exit status: 0 when every
 * check passed, 1 when one failed, 2 on a usage error. perfbench/run.py
 * builds this binary and turns the document into the benchmark line.
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <sys/resource.h>
#include <thread>

#include "common.hh"
#include "common/json.hh"

namespace
{

using namespace perfbench;

int
usage(const std::string &problem)
{
    std::cerr << "perfbench: " << problem << "\n"
              << "usage: perfbench --workload sim32|sweep4|serve_write "
                 "--seed N --seconds S --trace 0|1 "
                 "[--smoke] [--spans-out PATH]\n";
    return 2;
}

/** Peak resident set of this process in MB. */
double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KB -> MB
}

/** Worker threads for sweep and serve: nproc, at most 8. */
unsigned
workerThreads()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 8u);
}

bool
parseUnsigned(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || text.find_first_not_of("0123456789") !=
                            std::string::npos)
        return false;
    out = std::strtoull(text.c_str(), nullptr, 10);
    return true;
}

void
writeReport(const Args &args, const Report &report)
{
    prism::JsonWriter w(std::cout);
    w.beginObject();
    w.kv("workload", args.workload);
    w.kv("seed", args.seed);
    w.kv("trace", args.trace);
    w.kv("smoke", args.smoke);
    w.kv("threads", args.threads);
    w.key("build");
    w.beginObject();
    w.kv("compiler", PERFBENCH_COMPILER);
    w.kv("flags", PERFBENCH_FLAGS);
    w.kv("build_type", PERFBENCH_BUILD_TYPE);
    w.endObject();
    w.kv("attempted", report.attempted);
    w.kv("failed", report.failed);
    w.key("checks");
    w.beginArray();
    for (const Check &c : report.checks) {
        w.beginObject();
        w.kv("name", c.name);
        w.kv("ok", c.ok);
        w.kv("detail", c.detail);
        w.endObject();
    }
    w.endArray();
    w.key("metrics");
    w.beginObject();
    for (const auto &[name, m] : report.metrics) {
        w.key(name);
        w.beginObject();
        w.kv("value", m.value);
        w.kv("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.key("info");
    w.beginObject();
    for (const auto &[k, v] : report.info)
        w.kv(k, v);
    w.endObject();
    w.endObject();
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            return i + 1 < argc ? argv[++i] : std::string();
        };
        std::uint64_t n = 0;
        if (arg == "--workload") {
            args.workload = value();
        } else if (arg == "--seed") {
            if (!parseUnsigned(value(), n))
                return usage("--seed takes a non-negative integer");
            args.seed = n;
            have_seed = true;
        } else if (arg == "--seconds") {
            const std::string v = value();
            char *end = nullptr;
            args.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(args.seconds > 0))
                return usage("--seconds takes a positive number");
            have_seconds = true;
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                return usage("--trace takes 0 or 1");
            args.trace = v == "1";
            have_trace = true;
        } else if (arg == "--smoke") {
            args.smoke = true;
        } else if (arg == "--spans-out") {
            args.spansOut = value();
        } else {
            return usage("unknown argument '" + arg + "'");
        }
    }
    if (!have_seed || !have_seconds || !have_trace)
        return usage("--seed, --seconds and --trace are required");

    Report report;
    args.threads = workerThreads();
    if (args.workload == "sim32")
        runSim32(args, report);
    else if (args.workload == "sweep4")
        runSweep4(args, report);
    else if (args.workload == "serve_write")
        runServe(args, report);
    else
        return usage("unknown workload '" + args.workload + "'");

    if (!args.trace)
        report.metric("peak_rss_mb", peakRssMb(), "MB");
    writeReport(args, report);
    return report.allChecksPass() && report.failed == 0 ? 0 : 1;
}
