/**
 * @file
 * prism_top — console reporter over a prism-metrics-v1 file.
 *
 * Tails the snapshot file prism_serve maintains with
 * `--metrics-out FILE --metrics-every N` and renders the run headline
 * plus a per-tenant table: cumulative and windowed hit ratios, fair
 * slowdown, E_i churn, drift, targets and occupancy. The writer uses
 * atomic renames, so every read observes a complete snapshot;
 * prism_top never needs to talk to the process it is watching.
 *
 * Modes:
 *   prism_top FILE --once           render one frame and exit
 *   prism_top FILE                  follow: re-render when the
 *                                   snapshot's round advances
 *   prism_top FILE --frames N       follow, stop after N renders
 *
 * A failed or invalid first read exits 2; in follow mode later
 * transient failures (file mid-replacement, writer gone for a
 * moment) are tolerated and the previous frame stands.
 *
 * Exit codes: 0 success, 2 usage error or unreadable first frame.
 */

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/parse.hh"
#include "common/status.hh"
#include "common/table.hh"

using namespace prism;

namespace
{

void
usage(std::ostream &os)
{
    os <<
        "usage: prism_top FILE [options]\n"
        "  --once             render one frame and exit\n"
        "  --frames N         stop after N rendered frames\n"
        "  --interval-ms N    poll cadence in follow mode "
        "(default 500)\n";
}

[[noreturn]] void
cliError(const std::string &msg)
{
    std::cerr << "prism_top: " << msg << "\n\n";
    usage(std::cerr);
    std::exit(2);
}

/** A usage error unless @p value is a positive integer. */
std::uint64_t
positiveArg(const std::string &arg, const std::string &value)
{
    std::uint64_t v = 0;
    if (!parseU64(value, v) || v == 0)
        cliError(arg + " must be a positive integer, got '" + value +
                 "'");
    return v;
}

Status
readSnapshot(const std::string &path, JsonValue &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return Status::error("cannot open '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    if (in.bad())
        return Status::error("read error on '" + path + "'");
    if (const Status st = parseJson(text.str(), out); !st.ok())
        return Status::error(path + ": " + st.message());
    if (out.at("schema").asString() != "prism-metrics-v1")
        return Status::error(
            path + ": not a prism-metrics-v1 document (schema '" +
            out.at("schema").asString() + "')");
    return Status();
}

/** One rendered frame for @p doc. */
void
render(std::ostream &os, const JsonValue &doc)
{
    os << "prism_top: " << doc.at("run").asString();
    if (doc.at("policy").isString())
        os << " (policy " << doc.at("policy").asString() << ")";
    os << " — round " << doc.at("round").asU64() << ", "
       << doc.at("ops").asU64() << " ops, "
       << doc.at("intervals").asU64() << " interval(s)\n";

    const JsonValue &totals = doc.at("totals");
    if (totals.isObject()) {
        os << "  store: " << totals.at("occupancy_bytes").asU64()
           << "/" << totals.at("capacity_bytes").asU64()
           << " bytes, " << totals.at("objects").asU64()
           << " object(s), " << totals.at("evictions").asU64()
           << " eviction(s), " << totals.at("recomputes").asU64()
           << " recompute(s)\n";
    }

    const JsonValue &window = doc.at("window");
    if (window.isObject())
        os << "  window: " << window.at("size").asU64() << "/"
           << window.at("capacity").asU64()
           << " interval(s) retained, "
           << window.at("pushed").asU64() << " pushed\n";

    const JsonValue &doctor = doc.at("doctor");
    if (doctor.isObject()) {
        os << "  doctor: " << doctor.at("overall").asString();
        std::uint64_t warns = 0, fails = 0;
        for (const JsonValue &f :
             doctor.at("findings").elements()) {
            const std::string st = f.at("status").asString();
            warns += st == "WARN";
            fails += st == "FAIL";
        }
        os << " (" << warns << " warn, " << fails << " fail)\n";
        for (const JsonValue &f :
             doctor.at("findings").elements()) {
            const std::string st = f.at("status").asString();
            if (st != "WARN" && st != "FAIL")
                continue;
            os << "    " << st << " " << f.at("check").asString()
               << ": " << f.at("detail").asString() << "\n";
        }
    }

    const JsonValue &tenants = doc.at("tenants");
    if (tenants.isArray() && tenants.size() > 0) {
        const bool windowed =
            tenants.at(std::size_t{0}).at("window").isObject();
        std::vector<std::string> headers = {
            "tenant", "hit%", "target", "occ", "E_i", "evict"};
        if (windowed) {
            headers.push_back("w.hit%");
            headers.push_back("w.slow");
            headers.push_back("churn");
            headers.push_back("drift");
        }
        Table table(headers);
        for (const JsonValue &t : tenants.elements()) {
            std::vector<std::string> row = {
                std::to_string(t.at("tenant").asU64()),
                Table::pct(t.at("hit_ratio").asDouble()),
                Table::num(t.at("target").asDouble()),
                Table::num(t.at("occupancy").asDouble()),
                Table::num(t.at("ev_prob").asDouble()),
                std::to_string(t.at("evictions").asU64()),
            };
            if (windowed) {
                const JsonValue &w = t.at("window");
                row.push_back(
                    Table::pct(w.at("hit_ratio").asDouble()));
                row.push_back(
                    Table::num(w.at("fair_slowdown").asDouble()));
                row.push_back(Table::num(w.at("churn").asDouble()));
                row.push_back(Table::num(
                    w.at("miss_rate_drift").asDouble()));
            }
            table.addRow(std::move(row));
        }
        table.print(os);
    }

    const JsonValue &telemetry = doc.at("telemetry");
    if (telemetry.isObject()) {
        const std::uint64_t ds =
            telemetry.at("dropped_samples").asU64();
        const std::uint64_t de =
            telemetry.at("dropped_events").asU64();
        if (ds || de)
            os << "  telemetry: " << ds
               << " sample(s) dropped, " << de
               << " event(s) dropped\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path;
    bool once = false;
    std::uint64_t frames = 0; // 0 = unbounded in follow mode
    std::uint64_t interval_ms = 500;

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
        } else if (arg == "--once") {
            once = true;
        } else if (arg == "--frames") {
            frames = positiveArg(arg, value());
        } else if (arg == "--interval-ms") {
            interval_ms = positiveArg(arg, value());
        } else if (!arg.empty() && arg[0] == '-') {
            cliError("unknown option '" + arg + "'");
        } else if (path.empty()) {
            path = arg;
        } else {
            cliError("more than one FILE given");
        }
    }
    if (path.empty())
        cliError("missing FILE");

    // The first frame must be readable: a missing or malformed file
    // is an operator error, not a transient.
    JsonValue doc;
    if (const Status st = readSnapshot(path, doc); !st.ok()) {
        std::cerr << "prism_top: " << st.message() << "\n";
        return 2;
    }
    render(std::cout, doc);
    if (once)
        return 0;

    std::uint64_t rendered = 1;
    std::uint64_t last_round = doc.at("round").asU64();
    while (frames == 0 || rendered < frames) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(interval_ms));
        JsonValue next;
        // Transients (writer mid-rename, short outage) keep the
        // previous frame on screen instead of aborting the session.
        if (const Status st = readSnapshot(path, next); !st.ok())
            continue;
        const std::uint64_t round = next.at("round").asU64();
        if (round == last_round)
            continue;
        last_round = round;
        std::cout << "\n";
        render(std::cout, next);
        ++rendered;
    }
    return 0;
}
