/**
 * @file
 * prism_serve — multi-tenant object-store service mode.
 *
 * Runs a closed-loop serving session: Zipfian tenant workloads
 * through the sharded store under the PriSM tenant arbiter
 * (docs/SERVING.md). Prints a human summary; `--metrics-out PATH`
 * leaves the run's final `prism-metrics-v1` snapshot in PATH, the
 * serve run's one document, with its whole-run interval rows under
 * "history". `--doctor` embeds in each snapshot written the verdict
 * `prism_doctor` gives on it, and prints the final snapshot's verdict.
 *
 * Determinism: with `--ops N` (a fixed op budget) the snapshots are
 * byte-identical at any `--threads`; `--no-timing` additionally
 * leaves out the wall-clock latency histograms so whole files can be
 * compared. With `--seconds` the run length depends on the machine,
 * so only the per-run structure is stable.
 *
 * Examples:
 *   prism_serve --tenants 4 --threads 8 --seconds 5
 *   prism_serve --tenants 2 --ops 1000000 --no-timing \
 *               --metrics-out serve.json
 *   prism_serve --tenant keys=100000,get=0.9,slo-hit=0.3 \
 *               --tenant keys=400000,floor=0.5 --policy Q --doctor
 *
 * Exit codes: 0 success (doctor PASS/WARN), 1 doctor FAIL,
 * 2 usage or input error.
 */

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/doctor.hh"
#include "analysis/online_doctor.hh"
#include "common/cancel.hh"
#include "common/parse.hh"
#include "common/stop_signal.hh"
#include "serve/serve_engine.hh"

using namespace prism;
using namespace prism::serve;

namespace
{

void
usage(std::ostream &os)
{
    os <<
        "usage: prism_serve [options]\n"
        "  --tenants N          tenants with the base spec "
        "(default 4)\n"
        "  --tenant SPEC        add one tenant; SPEC is\n"
        "                       key=value[,...] over keys, zipf,\n"
        "                       get, vmin, vmax, weight, slo-hit,\n"
        "                       floor (repeatable; replaces\n"
        "                       --tenants when given)\n"
        "  --keys N             base keyspace per tenant "
        "(default 300000)\n"
        "  --zipf S             base Zipf exponent (default 0.99)\n"
        "  --threads N          worker threads (default 1)\n"
        "  --streams N          logical request streams "
        "(default 16)\n"
        "  --shards N           store shards (default 64)\n"
        "  --batch N            requests per stream per round "
        "(default 2048)\n"
        "  --capacity-mb N      store byte budget (default 64)\n"
        "  --interval W         misses per allocation interval "
        "(default 16384)\n"
        "  --policy H|F|Q       target policy (default H)\n"
        "  --seconds S          wall-clock run length (default 5)\n"
        "  --ops N              fixed op budget (overrides "
        "--seconds;\n"
        "                       required for byte-identical "
        "output)\n"
        "  --seed N             base RNG seed (default 42)\n"
        "  --no-timing          skip wall-clock collection and the\n"
        "                       non-deterministic latency histograms\n"
        "  --doctor             embed prism_doctor's verdict in every\n"
        "                       snapshot written and print the final\n"
        "                       verdict (graded over the whole run)\n"
        "  --metrics-out PATH   write prism-metrics-v1 snapshots; the\n"
        "                       final one holds the whole run\n"
        "  --metrics-prom PATH  write Prometheus text snapshots\n"
        "  --metrics-every N    snapshot every N rounds (0 = final\n"
        "                       snapshot only; default 0)\n"
        "  --window K           live sliding-window capacity in\n"
        "                       intervals (default 64)\n"
        "  --quiet              suppress the human summary\n"
        "\n"
        "SIGINT/SIGTERM stop the run at the next round boundary; the\n"
        "final metrics snapshots are still written, and the exit\n"
        "code is 130.\n";
}

[[noreturn]] void
cliError(const std::string &msg)
{
    std::cerr << "prism_serve: " << msg << "\n\n";
    usage(std::cerr);
    std::exit(2);
}

/** A usage error unless @p value parses as an unsigned integer. */
std::uint64_t
u64Arg(const std::string &arg, const std::string &value)
{
    std::uint64_t v = 0;
    if (!parseU64(value, v))
        cliError("invalid value '" + value + "' for " + arg);
    return v;
}

/** u64Arg, then a usage error unless the value is in [1, max]. */
std::uint64_t
parseCountArg(const std::string &arg, const std::string &value,
              std::uint64_t max)
{
    const std::uint64_t v = u64Arg(arg, value);
    if (v == 0 || v > max)
        cliError(arg + " must be in [1, " + std::to_string(max) + "]");
    return v;
}

double
parseDoubleArg(const std::string &arg, const std::string &value)
{
    double v = 0.0;
    if (!parseDouble(value, v))
        cliError("invalid value '" + value + "' for " + arg);
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    ServeConfig config;
    TenantSpec base;
    std::vector<std::string> tenant_specs;
    std::uint64_t num_tenants = 4;
    bool quiet = false;
    analysis::LiveObserverOptions live;

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
        } else if (arg == "--tenants") {
            num_tenants = parseCountArg(arg, value(), 256);
        } else if (arg == "--tenant") {
            tenant_specs.push_back(value());
        } else if (arg == "--keys") {
            base.keys = u64Arg(arg, value());
            if (base.keys == 0)
                cliError("--keys must be positive");
        } else if (arg == "--zipf") {
            base.zipf = parseDoubleArg(arg, value());
            if (base.zipf < 0.0)
                cliError("--zipf must be >= 0");
        } else if (arg == "--threads") {
            config.threads = static_cast<std::uint32_t>(
                parseCountArg(arg, value(), UINT32_MAX));
        } else if (arg == "--streams") {
            config.streams = static_cast<std::uint32_t>(
                parseCountArg(arg, value(), UINT32_MAX));
        } else if (arg == "--shards") {
            // The store rounds the count up to a power of two, which
            // must still fit its 32-bit shard count.
            config.shards = static_cast<std::uint32_t>(
                parseCountArg(arg, value(), 1u << 31));
        } else if (arg == "--batch") {
            config.batch = static_cast<std::uint32_t>(
                parseCountArg(arg, value(), UINT32_MAX));
        } else if (arg == "--capacity-mb") {
            config.capacityBytes =
                parseCountArg(arg, value(), UINT64_MAX >> 20) << 20;
        } else if (arg == "--interval") {
            config.intervalMisses = u64Arg(arg, value());
            if (config.intervalMisses == 0)
                cliError("--interval must be positive");
        } else if (arg == "--policy") {
            const std::string v = value();
            if (v.size() != 1 ||
                (v[0] != 'H' && v[0] != 'F' && v[0] != 'Q'))
                cliError("--policy must be H, F or Q");
            config.policy = v[0];
        } else if (arg == "--seconds") {
            config.seconds = parseDoubleArg(arg, value());
            if (!(config.seconds > 0.0) ||
                !deadlineAfter(std::chrono::steady_clock::now(),
                               config.seconds))
                cliError("--seconds must be positive, finite and "
                         "within the clock's range");
        } else if (arg == "--ops") {
            config.opBudget = u64Arg(arg, value());
            if (config.opBudget == 0)
                cliError("--ops must be positive");
        } else if (arg == "--seed") {
            config.seed = u64Arg(arg, value());
        } else if (arg == "--no-timing") {
            config.timing = false;
        } else if (arg == "--doctor") {
            live.onlineDoctor = true;
        } else if (arg == "--metrics-out") {
            live.metricsJsonPath = value();
            if (live.metricsJsonPath.empty())
                cliError("--metrics-out needs a path");
        } else if (arg == "--metrics-prom") {
            live.metricsPromPath = value();
            if (live.metricsPromPath.empty())
                cliError("--metrics-prom needs a path");
        } else if (arg == "--metrics-every") {
            live.metricsEvery = u64Arg(arg, value());
        } else if (arg == "--window") {
            live.windowCapacity = static_cast<std::size_t>(
                u64Arg(arg, value()));
            if (live.windowCapacity == 0)
                cliError("--window must be positive");
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            cliError("unknown option '" + arg + "'");
        }
    }

    if (tenant_specs.empty()) {
        config.tenants.assign(num_tenants, base);
    } else {
        for (const std::string &text : tenant_specs) {
            TenantSpec spec = base;
            if (const Status st = parseTenantSpec(text, spec);
                !st.ok())
                cliError("--tenant: " + st.message());
            config.tenants.push_back(spec);
        }
    }

    if (live.metricsEvery > 0 && live.metricsJsonPath.empty() &&
        live.metricsPromPath.empty())
        cliError("--metrics-every needs --metrics-out or "
                 "--metrics-prom");

    const bool want_live = live.onlineDoctor ||
                           !live.metricsJsonPath.empty() ||
                           !live.metricsPromPath.empty();
    std::unique_ptr<analysis::ServeLiveObserver> observer;
    if (want_live) {
        observer = std::make_unique<analysis::ServeLiveObserver>(
            config, live);
        config.observer = observer.get();
    }

    installStopHandlers();
    config.stopFlag = &stopRequested();

    ServeEngine engine(config);
    const ServeResult result = engine.run();

    if (observer) {
        if (const Status st = observer->flushFinal(); !st.ok()) {
            std::cerr << "prism_serve: metrics: " << st.message()
                      << "\n";
            return 2;
        }
    }

    if (!quiet) {
        std::uint64_t hits = 0, misses = 0;
        for (const TenantTotals &t : result.tenants) {
            hits += t.hits;
            misses += t.misses;
        }
        const std::uint64_t accesses = hits + misses;
        std::cout << "prism_serve: policy " << policyName(config.policy)
                  << ", " << config.tenants.size() << " tenant(s), "
                  << result.ops << " ops in " << result.rounds
                  << " round(s)\n";
        if (config.timing && result.wallSeconds > 0.0)
            std::cout << "  wall " << result.wallSeconds << " s, "
                      << static_cast<std::uint64_t>(
                             static_cast<double>(result.ops) /
                             result.wallSeconds)
                      << " ops/s\n";
        std::cout << "  hit ratio "
                  << (accesses ? static_cast<double>(hits) /
                                     static_cast<double>(accesses)
                               : 0.0)
                  << ", " << result.intervals << " interval(s), "
                  << result.evictions << " eviction(s), "
                  << result.recomputes << " recompute(s)\n";
        for (std::size_t t = 0; t < result.tenants.size(); ++t) {
            const TenantTotals &tt = result.tenants[t];
            const std::uint64_t acc = tt.hits + tt.misses;
            std::cout << "  tenant " << t << ": hit ratio "
                      << (acc ? static_cast<double>(tt.hits) /
                                    static_cast<double>(acc)
                              : 0.0)
                      << ", " << tt.occupancyBytes
                      << " bytes resident, " << tt.evictions
                      << " eviction(s)\n";
        }
    }

    int rc = 0;
    if (live.onlineDoctor) {
        // Graded over the whole run's history: the verdict
        // prism_doctor gives on the final snapshot.
        const analysis::Verdict verdict = observer->grade();
        analysis::printReport(std::cout, verdict);
        if (verdict.overall == analysis::FindingStatus::Fail)
            rc = 1;
    }

    if (result.stopped)
        return stopExitCode;
    return rc;
}
