#include "analysis/run_spec.hh"

#include <sstream>
#include <string>
#include <vector>

#include "common/parse.hh"
#include "fault/fault_injector.hh"

namespace prism::analysis
{

namespace
{

std::vector<std::string>
tokenize(std::string_view text)
{
    std::vector<std::string> out;
    std::istringstream in{std::string(text)};
    std::string tok;
    while (in >> tok)
        out.push_back(tok);
    return out;
}

Status
parseU64(const std::string &flag, const std::string &text,
         std::uint64_t &out)
{
    if (!prism::parseU64(text, out))
        return Status::error("invalid number '" + text + "' for " +
                             flag);
    return Status();
}

Status
parseDouble(const std::string &flag, const std::string &text,
            double &out)
{
    if (!prism::parseDouble(text, out))
        return Status::error("invalid number '" + text + "' for " +
                             flag);
    return Status();
}

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
parseRunSpec(std::string_view text, RunSpec &out)
{
    out = RunSpec();

    std::uint64_t cores = 4;
    bool cores_set = false;
    std::string workload_name, mix;
    std::string scheme_name = "PriSM-H", repl_name = "LRU";
    std::uint64_t instr = 1'500'000, warmup = 500'000, interval = 0;
    std::uint64_t seed = 0x5EED0001ULL, bits = 0;
    double qos_frac = 0.8;

    const std::vector<std::string> tokens = tokenize(text);
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const std::string &flag = tokens[i];
        auto value = [&](std::string &v) {
            if (i + 1 >= tokens.size())
                return Status::error("missing value for " + flag);
            v = tokens[++i];
            return Status();
        };
        std::string v;
        Status st;
        if (flag == "--cores") {
            if (!(st = value(v)).ok() ||
                !(st = parseU64(flag, v, cores)).ok())
                return st;
            cores_set = true;
        } else if (flag == "--workload") {
            if (!(st = value(workload_name)).ok())
                return st;
        } else if (flag == "--mix") {
            if (!(st = value(mix)).ok())
                return st;
        } else if (flag == "--scheme") {
            if (!(st = value(scheme_name)).ok())
                return st;
        } else if (flag == "--repl") {
            if (!(st = value(repl_name)).ok())
                return st;
        } else if (flag == "--instr") {
            if (!(st = value(v)).ok() ||
                !(st = parseU64(flag, v, instr)).ok())
                return st;
        } else if (flag == "--warmup") {
            if (!(st = value(v)).ok() ||
                !(st = parseU64(flag, v, warmup)).ok())
                return st;
        } else if (flag == "--interval") {
            if (!(st = value(v)).ok() ||
                !(st = parseU64(flag, v, interval)).ok())
                return st;
        } else if (flag == "--seed") {
            if (!(st = value(v)).ok() ||
                !(st = parseU64(flag, v, seed)).ok())
                return st;
        } else if (flag == "--bits") {
            if (!(st = value(v)).ok() ||
                !(st = parseU64(flag, v, bits)).ok())
                return st;
            if (bits > 31)
                return Status::error("--bits must be in [0, 31]");
        } else if (flag == "--qos-frac") {
            if (!(st = value(v)).ok() ||
                !(st = parseDouble(flag, v, qos_frac)).ok())
                return st;
        } else if (flag == "--faults") {
            if (!(st = value(out.options.faultSpec)).ok())
                return st;
        } else if (flag == "--checked") {
            out.options.checked = true;
        } else {
            return Status::error("unknown run flag '" + flag + "'");
        }
    }

    if (!schemeFromName(scheme_name, out.scheme))
        return Status::error("unknown scheme '" + scheme_name + "'");
    ReplKind repl;
    if (!replFromName(repl_name, repl))
        return Status::error("unknown replacement policy '" +
                             repl_name + "'");
    if (!out.options.faultSpec.empty()) {
        std::vector<FaultClause> clauses;
        if (const Status st =
                parseFaultSpec(out.options.faultSpec, clauses);
            !st.ok())
            return st;
    }

    if (!mix.empty()) {
        out.workload.name = "custom";
        out.workload.benchmarks = splitMix(mix);
        if (out.workload.benchmarks.empty())
            return Status::error("--mix lists no benchmarks");
        if (cores_set && out.workload.benchmarks.size() != cores)
            return Status::error(
                "--mix lists " +
                std::to_string(out.workload.benchmarks.size()) +
                " benchmarks but --cores asked for " +
                std::to_string(cores));
        cores = out.workload.benchmarks.size();
    } else if (!workload_name.empty()) {
        if (!suites::find(workload_name, out.workload))
            return Status::error("unknown workload '" +
                                 workload_name + "'");
        cores = out.workload.benchmarks.size();
    } else {
        if (cores != 4 && cores != 8 && cores != 16 && cores != 32)
            return Status::error(
                "--cores must be 4, 8, 16 or 32 (got " +
                std::to_string(cores) + ")");
        out.workload = suites::forCoreCount(
                           static_cast<std::uint32_t>(cores))
                           .front();
    }

    out.machine =
        MachineConfig::forCores(static_cast<std::uint32_t>(cores));
    out.machine.instrBudget = instr;
    out.machine.warmupInstr = warmup;
    if (interval)
        out.machine.intervalMisses = interval;
    out.machine.seed = seed;
    out.machine.repl = repl;

    if (const auto errors = out.machine.validate();
        !errors.empty()) {
        std::string joined = "invalid machine configuration:";
        for (const std::string &e : errors)
            joined += " " + e + ";";
        return Status::error(joined);
    }

    out.options.probBits = static_cast<unsigned>(bits);
    out.options.qosTargetFrac = qos_frac;
    return Status();
}

} // namespace prism::analysis
