#include "analysis/run_spec.hh"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "common/parse.hh"
#include "fault/fault_injector.hh"
#include "workload/profiles.hh"

namespace prism::analysis
{

namespace
{

std::vector<std::string>
splitMix(const std::string &mix)
{
    std::vector<std::string> out;
    std::istringstream in(mix);
    std::string item;
    while (std::getline(in, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

} // namespace

Status
parseRunSpec(std::span<const std::string> tokens, RunSpec &out)
{
    out = RunSpec();

    std::uint64_t cores = 4;
    bool cores_set = false;
    std::string workload_name, mix;
    std::string scheme_name = "PriSM-H", repl_name = "LRU";
    std::uint64_t instr = 1'500'000, warmup = 500'000, interval = 0;
    std::uint64_t seed = 0x5EED0001ULL, bits = 0;
    double qos_frac = 0.8;

    // Every flag but --checked takes a value: a name, a count or
    // (--qos-frac) a fraction.
    const std::map<std::string_view, std::string *> names{
        {"--workload", &workload_name},
        {"--mix", &mix},
        {"--scheme", &scheme_name},
        {"--repl", &repl_name},
        {"--faults", &out.options.faultSpec}};
    const std::map<std::string_view, std::uint64_t *> counts{
        {"--cores", &cores},   {"--instr", &instr},
        {"--warmup", &warmup}, {"--interval", &interval},
        {"--seed", &seed},     {"--bits", &bits}};

    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const std::string &flag = tokens[i];
        if (flag == "--checked") {
            out.options.checked = true;
            continue;
        }
        const auto name = names.find(flag);
        const auto count = counts.find(flag);
        if (name == names.end() && count == counts.end() &&
            flag != "--qos-frac")
            return Status::error("unknown option '" + flag + "'");
        if (i + 1 == tokens.size())
            return Status::error("missing value for " + flag);
        const std::string &value = tokens[++i];
        if (name != names.end())
            *name->second = value;
        else if (count != counts.end()
                     ? !parseU64(value, *count->second)
                     : !parseDouble(value, qos_frac))
            return Status::error("invalid number '" + value +
                                 "' for " + flag);
        cores_set |= flag == "--cores";
    }

    if (cores > std::numeric_limits<std::uint32_t>::max())
        return Status::error("value '" + std::to_string(cores) +
                             "' for --cores is out of range");
    if (bits > 31)
        return Status::error("--bits must be in [0, 31]");
    // The PriSM-Q floor is a fraction of stand-alone IPC; the negated
    // test also refuses NaN.
    if (!(qos_frac > 0.0 && qos_frac <= 1.0))
        return Status::error("--qos-frac must be in (0, 1]");

    if (!schemeFromName(scheme_name, out.scheme))
        return Status::error("unknown scheme '" + scheme_name + "'");
    ReplKind repl = ReplKind::LRU;
    if (!replFromName(repl_name, repl))
        return Status::error("unknown replacement policy '" +
                             repl_name + "'");
    if (!out.options.faultSpec.empty()) {
        std::vector<FaultClause> clauses;
        if (const Status st =
                parseFaultSpec(out.options.faultSpec, clauses);
            !st.ok())
            return st;
        for (const FaultClause &c : clauses)
            if (isExecFaultKind(c.kind))
                return Status::error(
                    std::string("exec-level fault kind '") +
                    faultKindName(c.kind) +
                    "' is only valid in the sweep chaos spec "
                    "(prism_bench --chaos)");
    }

    if (!mix.empty()) {
        out.workload.name = "custom";
        out.workload.benchmarks = splitMix(mix);
        if (out.workload.benchmarks.empty())
            return Status::error("--mix lists no benchmarks");
        const std::vector<std::string> known =
            ProfileLibrary::instance().names();
        for (const std::string &b : out.workload.benchmarks)
            if (std::find(known.begin(), known.end(), b) ==
                known.end())
                return Status::error("unknown benchmark '" + b +
                                     "' in --mix");
    } else if (!workload_name.empty()) {
        if (!suites::find(workload_name, out.workload))
            return Status::error("unknown workload '" +
                                 workload_name + "'");
    } else {
        if (cores != 4 && cores != 8 && cores != 16 && cores != 32)
            return Status::error(
                "--cores must be 4, 8, 16 or 32 (got " +
                std::to_string(cores) + ")");
        out.workload = suites::forCoreCount(
                           static_cast<std::uint32_t>(cores))
                           .front();
    }
    // A workload fixes the core count; --cores may only restate it.
    if (cores_set && out.workload.benchmarks.size() != cores)
        return Status::error(
            (mix.empty() ? "--workload " + workload_name : "--mix") +
            " lists " +
            std::to_string(out.workload.benchmarks.size()) +
            " benchmarks but --cores asked for " +
            std::to_string(cores));
    cores = out.workload.benchmarks.size();

    out.machine =
        MachineConfig::forCores(static_cast<std::uint32_t>(cores));
    out.machine.instrBudget = instr;
    out.machine.warmupInstr = warmup;
    if (interval)
        out.machine.intervalMisses = interval;
    out.machine.seed = seed;
    out.machine.repl = repl;

    // One actionable line per problem, instead of a failure deep
    // inside cache construction.
    if (const auto errors = out.machine.validate();
        !errors.empty()) {
        std::string joined = "invalid configuration:";
        for (const std::string &e : errors)
            joined += "\n  - " + e;
        return Status::error(joined);
    }

    out.options.probBits = static_cast<unsigned>(bits);
    out.options.qosTargetFrac = qos_frac;
    return Status();
}

Status
parseRunSpec(std::string_view text, RunSpec &out)
{
    std::vector<std::string> tokens;
    std::istringstream in{std::string(text)};
    for (std::string token; in >> token;)
        tokens.push_back(token);
    return parseRunSpec(tokens, out);
}

} // namespace prism::analysis
