/**
 * @file
 * prism_sim — command-line driver for the PriSM simulator.
 *
 * Runs a multi-programmed workload on the paper's evaluation machine
 * under any of the built-in cache-management schemes and prints
 * per-core statistics plus the summary metrics. The tool handles its
 * output and listing flags; every other token is a run flag, parsed
 * by parseRunSpec (analysis/run_spec.hh), the parser behind
 * `prism_doctor --run`.
 *
 * Examples:
 *   prism_sim --cores 4 --workload Q7 --scheme PriSM-H
 *   prism_sim --mix 179.art,470.lbm,403.gcc,300.twolf --scheme UCP
 *   prism_sim --cores 16 --workload S3 --scheme PriSM-F --csv
 *   prism_sim --checked --faults nan@2,occ@3 --stats
 *   prism_sim --list-benchmarks
 *
 * Exit codes: 0 success, 1 runtime failure, 2 usage/configuration
 * error (unknown flag, malformed number, invalid machine, bad fault
 * spec).
 */

#include <cstdlib>
#include <iostream>
#include <sstream>

#include "analysis/run_spec.hh"
#include "common/atomic_file.hh"
#include "common/parse.hh"
#include "common/table.hh"
#include "telemetry/trace_writer.hh"
#include "workload/profiles.hh"

using namespace prism;

namespace
{

/** The output flags, plus the run-flag tokens for parseRunSpec. */
struct Options
{
    std::vector<std::string> run_flags;
    bool csv = false;
    bool stats = false;
    std::string stats_json;
    std::string trace;
    std::string trace_csv;
    std::uint64_t trace_capacity = 4096;
    bool trace_wall = false;
};

void
usage(std::ostream &os)
{
    os <<
        "usage: prism_sim [options]\n"
        "  --cores N            4, 8, 16 or 32 (default 4)\n"
        "  --workload NAME      suite mix, e.g. Q7, E3, S12, T5\n"
        "  --mix a,b,c,...      explicit benchmark list (one per core)\n"
        "  --scheme NAME        LRU | UCP | PIPP | TA-DIP | FairWP |\n"
        "                       Vantage | PriSM-H | PriSM-F | PriSM-Q |\n"
        "                       PriSM-LA | PriSM-WM | WP-HitMax |\n"
        "                       StaticWP\n"
        "                       (default PriSM-H)\n"
        "  --repl NAME          LRU | TS-LRU | DIP | RRIP | Random\n"
        "  --instr N            instructions per core (default 1.5M)\n"
        "  --warmup N           warm-up instructions (default 500k)\n"
        "  --interval W         recompute interval in misses\n"
        "                       (0 = paper default, half the blocks)\n"
        "  --seed N             simulation seed\n"
        "  --bits K             K-bit PriSM probabilities (0 = float)\n"
        "  --qos-frac F         PriSM-Q IPC floor fraction (default 0.8)\n"
        "  --faults SPEC        inject faults at interval boundaries;\n"
        "                       SPEC = kind@period[+phase],... with kind\n"
        "                       occ|stale|drop|nan|inf|quant|shadow\n"
        "                       (e.g. nan@4,occ@3+1,drop@10)\n"
        "  --checked            audit invariants each interval; repair\n"
        "                       or degrade instead of aborting\n"
        "  --csv                machine-readable output\n"
        "  --stats              dump raw simulator statistics\n"
        "  --stats-json PATH    write the statistics as JSON\n"
        "  --trace PATH         record the per-interval time series\n"
        "                       and write it as Chrome trace JSON\n"
        "                       (load in chrome://tracing / Perfetto)\n"
        "  --trace-csv PATH     also/instead write the series as CSV\n"
        "  --trace-capacity N   intervals retained (default 4096;\n"
        "                       oldest dropped beyond that)\n"
        "  --trace-wall         include wall-clock span aggregates in\n"
        "                       the trace (breaks byte-determinism)\n"
        "  --list-benchmarks    print the profile library and exit\n"
        "  --list-workloads     print the suite mixes and exit\n";
}

/** Diagnose a usage error and exit with code 2. */
[[noreturn]] void
cliError(const std::string &msg)
{
    std::cerr << "prism_sim: " << msg << "\n\n";
    usage(std::cerr);
    std::exit(2);
}

void
listBenchmarks()
{
    const auto &lib = ProfileLibrary::instance();
    Table t({"benchmark", "category", "working set (blocks)",
             "mem ratio", "MLP"});
    auto cat = [](BenchCategory c) {
        switch (c) {
          case BenchCategory::Friendly:
            return "friendly";
          case BenchCategory::Streaming:
            return "streaming";
          case BenchCategory::Intensive:
            return "intensive";
          case BenchCategory::Insensitive:
            return "insensitive";
        }
        return "?";
    };
    for (const auto &name : lib.names()) {
        const auto &p = lib.get(name);
        std::uint64_t footprint = p.locality.workingSetBlocks +
                                  p.locality.loopBlocks;
        t.addRow({p.name, cat(p.category), std::to_string(footprint),
                  Table::num(p.memRatio, 2), Table::num(p.mlp, 1)});
    }
    t.print(std::cout);
}

void
listWorkloads()
{
    for (unsigned cores : {4u, 8u, 16u, 32u}) {
        for (const auto &w : suites::forCoreCount(cores)) {
            std::cout << w.name << ":";
            for (const auto &b : w.benchmarks)
                std::cout << ' ' << b;
            std::cout << '\n';
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
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
        } else if (arg == "--list-benchmarks") {
            listBenchmarks();
            return 0;
        } else if (arg == "--list-workloads") {
            listWorkloads();
            return 0;
        } else if (arg == "--csv") {
            opt.csv = true;
        } else if (arg == "--stats") {
            opt.stats = true;
        } else if (arg == "--stats-json") {
            opt.stats_json = value();
        } else if (arg == "--trace") {
            opt.trace = value();
        } else if (arg == "--trace-csv") {
            opt.trace_csv = value();
        } else if (arg == "--trace-capacity") {
            const std::string v = value();
            if (!parseU64(v, opt.trace_capacity))
                cliError("invalid number '" + v + "' for " + arg);
            if (opt.trace_capacity == 0)
                cliError("--trace-capacity must be at least 1");
        } else if (arg == "--trace-wall") {
            opt.trace_wall = true;
        } else {
            opt.run_flags.push_back(arg);
        }
    }

    // The run flags are parsed and checked whole before anything
    // runs, so a typo is a usage error, not a failure half-way into
    // a long run.
    analysis::RunSpec spec;
    if (const Status st = analysis::parseRunSpec(opt.run_flags, spec);
        !st.ok())
        cliError(st.message());

    SchemeOptions &scheme_opt = spec.options;
    std::ostringstream stats;
    if (opt.stats)
        scheme_opt.statsSink = &stats;
    // Buffered and written atomically after the run (tmp + rename):
    // a crash mid-run never leaves a truncated JSON file behind.
    std::ostringstream stats_json;
    if (!opt.stats_json.empty())
        scheme_opt.statsJsonSink = &stats_json;

    const bool tracing = !opt.trace.empty() || !opt.trace_csv.empty();
    telemetry::MetricsRegistry metrics;
    if (tracing) {
        scheme_opt.telemetry.enabled = true;
        scheme_opt.telemetry.capacity = opt.trace_capacity;
        scheme_opt.telemetry.metrics = &metrics;
    }

    Runner runner(spec.machine);
    const RunResult res =
        runner.run(spec.workload, spec.scheme, scheme_opt);

    if (!opt.stats_json.empty()) {
        if (const Status st =
                writeFileAtomic(opt.stats_json, stats_json.str());
            !st.ok()) {
            std::cerr << "prism_sim: cannot write " << opt.stats_json
                      << ": " << st.message() << "\n";
            return 1;
        }
    }

    if (tracing) {
        const telemetry::TraceJob job{
            spec.workload.name + "/" + res.scheme,
            res.recorder.get()};
        telemetry::TraceOptions trace_opt;
        trace_opt.includeWallTime = opt.trace_wall;
        const telemetry::TraceWriter writer(trace_opt);
        if (!opt.trace.empty()) {
            const Status st = writeFileAtomic(
                opt.trace, [&](std::ostream &file) {
                    writer.writeChromeTrace(file, {&job, 1},
                                            &metrics);
                });
            if (!st.ok()) {
                std::cerr << "prism_sim: cannot write " << opt.trace
                          << ": " << st.message() << "\n";
                return 1;
            }
        }
        if (!opt.trace_csv.empty()) {
            const Status st = writeFileAtomic(
                opt.trace_csv, [&](std::ostream &file) {
                    writer.writeCsv(file, {&job, 1});
                });
            if (!st.ok()) {
                std::cerr << "prism_sim: cannot write "
                          << opt.trace_csv << ": " << st.message()
                          << "\n";
                return 1;
            }
        }
        // The trace header records drop totals, but nobody reads a
        // header they don't expect — surface truncation on the
        // console too.
        const telemetry::IntervalRecorder &rec = *res.recorder;
        if (rec.droppedSamples() || rec.droppedEvents())
            std::cerr << "prism_sim: trace truncated: "
                      << rec.droppedSamples() << " samples and "
                      << rec.droppedEvents()
                      << " events dropped (ring capacity "
                      << rec.capacity()
                      << "); raise --trace-capacity to keep the full "
                         "series\n";
    }

    Table t({"core", "benchmark", "IPC", "IPC alone", "slowdown",
             "LLC hits", "LLC misses", "occupancy"});
    for (std::size_t c = 0; c < res.ipc.size(); ++c)
        t.addRow({std::to_string(c), res.benchmarks[c],
                  Table::num(res.ipc[c]),
                  Table::num(res.ipcStandalone[c]),
                  Table::num(res.ipc[c] / res.ipcStandalone[c], 2),
                  std::to_string(res.llcHits[c]),
                  std::to_string(res.llcMisses[c]),
                  Table::num(res.occupancyAtFinish[c], 3)});

    if (opt.csv) {
        t.printCsv(std::cout);
    } else {
        std::cout << "workload " << spec.workload.name << " on "
                  << spec.machine.numCores << " cores, scheme "
                  << res.scheme << ", repl "
                  << replKindName(spec.machine.repl) << "\n\n";
        t.print(std::cout);
        std::cout << "\nANTT " << Table::num(res.antt())
                  << " (lower is better), fairness "
                  << Table::num(res.fairness()) << ", throughput "
                  << Table::num(res.ipcThroughput()) << " IPC\n";
        if (res.recomputes)
            std::cout << "PriSM: " << res.recomputes
                      << " recomputations, victimless fraction "
                      << Table::pct(res.victimlessFraction) << "\n";
    }
    if (scheme_opt.checked || !scheme_opt.faultSpec.empty()) {
        std::cout << "robustness: " << res.faultsInjected
                  << " faults injected, " << res.degradedIntervals
                  << " degraded intervals, " << res.invariantViolations
                  << " invariant violations, " << res.ownershipRepairs
                  << " ownership repairs, " << res.clampedEq1Inputs
                  << " clamped eq1 inputs, " << res.droppedRecomputes
                  << " dropped recomputes\n";
    }
    if (opt.stats)
        std::cout << "\n" << stats.str();
    return 0;
}
