/**
 * @file
 * Smoke tests for the prism_sim command-line driver, exercised as a
 * subprocess. Located via the PRISM_SIM_BIN environment variable set
 * by CTest (falls back to the conventional build path).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace
{

std::string
binPath()
{
    if (const char *p = std::getenv("PRISM_SIM_BIN"))
        return p;
    return "tools/prism_sim"; // relative to the build directory
}

/** Run a command, capture stdout+stderr, return (exit, output). */
std::pair<int, std::string>
run(const std::string &args)
{
    const std::string cmd = binPath() + " " + args + " 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    std::string out;
    std::array<char, 4096> buf;
    while (std::size_t n = std::fread(buf.data(), 1, buf.size(), pipe))
        out.append(buf.data(), n);
    const int status = pclose(pipe);
    return {WEXITSTATUS(status), out};
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "missing " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // namespace

TEST(Cli, HelpExitsCleanly)
{
    const auto [code, out] = run("--help");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("--scheme"), std::string::npos);
}

TEST(Cli, ListBenchmarks)
{
    const auto [code, out] = run("--list-benchmarks");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("179.art"), std::string::npos);
    EXPECT_NE(out.find("streaming"), std::string::npos);
}

TEST(Cli, ListWorkloads)
{
    const auto [code, out] = run("--list-workloads");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("Q7:"), std::string::npos);
    EXPECT_NE(out.find("T14:"), std::string::npos);
}

TEST(Cli, RunsTinyWorkload)
{
    const auto [code, out] = run(
        "--mix 403.gcc,186.crafty --scheme PriSM-H "
        "--instr 50000 --warmup 10000");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("ANTT"), std::string::npos);
    EXPECT_NE(out.find("PriSM-H"), std::string::npos);
}

TEST(Cli, CsvModeIsMachineReadable)
{
    const auto [code, out] = run(
        "--mix 403.gcc,186.crafty --scheme LRU "
        "--instr 50000 --warmup 10000 --csv");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("core,benchmark,IPC"), std::string::npos);
}

TEST(Cli, StatsFlagDumpsCounters)
{
    const auto [code, out] = run(
        "--mix 403.gcc,186.crafty --scheme LRU "
        "--instr 50000 --warmup 10000 --stats");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("system.llc.total_misses"), std::string::npos);
}

TEST(Cli, StatsJsonWritesSchemaFile)
{
    const std::string path = testing::TempDir() + "cli_stats.json";
    const auto [code, out] = run(
        "--mix 403.gcc,186.crafty --scheme PriSM-H "
        "--instr 50000 --warmup 10000 --stats-json " + path);
    EXPECT_EQ(code, 0);
    const std::string json = slurp(path);
    EXPECT_NE(json.find("\"prism-stats-v1\""), std::string::npos);
    EXPECT_NE(json.find("\"total_misses\""), std::string::npos);
    EXPECT_NE(json.find("\"recomputes\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(Cli, TraceFilesAreDeterministic)
{
    const std::string a = testing::TempDir() + "cli_trace_a.json";
    const std::string b = testing::TempDir() + "cli_trace_b.json";
    const std::string args =
        "--mix 403.gcc,186.crafty --scheme PriSM-H "
        "--instr 50000 --warmup 10000 --trace ";
    EXPECT_EQ(run(args + a).first, 0);
    EXPECT_EQ(run(args + b).first, 0);
    const std::string trace = slurp(a);
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("prism-trace-v1"), std::string::npos);
    EXPECT_EQ(trace, slurp(b)) << "--trace output is not stable";
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(Cli, OversizedTraceCapacityIsOnlyABound)
{
    // The recorder once reserved its whole capacity up front, so a
    // capacity far beyond memory aborted on std::bad_alloc. Storage
    // now grows with what is recorded, and a trace records no
    // capacity: it matches the default-capacity trace byte for byte.
    const std::string big = testing::TempDir() + "cli_trace_big.json";
    const std::string def = testing::TempDir() + "cli_trace_def.json";
    const std::string args =
        "--mix 403.gcc,186.crafty --instr 20000 --warmup 5000 --trace ";
    const auto [code, out] =
        run(args + big + " --trace-capacity 100000000000");
    EXPECT_EQ(code, 0) << out;
    EXPECT_EQ(run(args + def).first, 0);
    const std::string trace = slurp(big);
    EXPECT_NE(trace.find("prism-trace-v1"), std::string::npos);
    EXPECT_EQ(trace, slurp(def));
    std::remove(big.c_str());
    std::remove(def.c_str());
}

TEST(Cli, TraceCapacityZeroFails)
{
    const auto [code, out] = run(
        "--mix 403.gcc,186.crafty --instr 50000 --warmup 10000 "
        "--trace-capacity 0");
    EXPECT_EQ(code, 2);
}

TEST(Cli, UnknownSchemeFails)
{
    const auto [code, out] = run("--scheme Bogus --instr 1000");
    EXPECT_NE(code, 0);
    EXPECT_NE(out.find("unknown scheme"), std::string::npos);
}

TEST(Cli, UnknownOptionFails)
{
    const auto [code, out] = run("--frobnicate");
    EXPECT_EQ(code, 2);
    EXPECT_NE(out.find("usage"), std::string::npos);
}

TEST(Cli, MalformedNumberFails)
{
    const auto [code, out] = run("--instr 12x34");
    EXPECT_EQ(code, 2);
    EXPECT_NE(out.find("12x34"), std::string::npos);
}

TEST(Cli, BitsOutOfRangeFailsBeforeTheRun)
{
    // --bits 32 once ran the stand-alone references and the warm-up
    // before the codec refused it at the first recompute (exit 1).
    const auto [code, out] = run(
        "--mix 403.gcc,186.crafty --instr 50000 --warmup 10000 "
        "--interval 200 --bits 32");
    EXPECT_EQ(code, 2);
    EXPECT_NE(out.find("[0, 31]"), std::string::npos) << out;
    EXPECT_EQ(out.find("ANTT"), std::string::npos)
        << "a usage error must not print a results table: " << out;
}

TEST(Cli, MixCoreCountMismatchFails)
{
    const auto [code, out] =
        run("--cores 4 --mix 403.gcc,186.crafty --instr 50000 "
            "--warmup 10000");
    EXPECT_EQ(code, 2);
    EXPECT_NE(out.find("--mix"), std::string::npos);
}

TEST(Cli, UnknownMixBenchmarkAndWorkloadCoreMismatchFailBeforeTheRun)
{
    // Both used to get past the parser: the unknown name exited 1
    // from the profile lookup, and --cores 8 ran Q7 on 4 cores.
    const auto [code, out] = run(
        "--mix 403.gcc,nosuch.bench --instr 30000 --warmup 10000");
    EXPECT_EQ(code, 2) << out;
    EXPECT_NE(out.find("unknown benchmark 'nosuch.bench'"),
              std::string::npos)
        << out;

    const auto [code2, out2] = run(
        "--workload Q7 --cores 8 --instr 30000 --warmup 10000");
    EXPECT_EQ(code2, 2) << out2;
    EXPECT_NE(out2.find("--cores"), std::string::npos) << out2;
    EXPECT_EQ(out2.find("ANTT"), std::string::npos)
        << "a usage error must not print a results table: " << out2;
}

TEST(Cli, BadFaultSpecFails)
{
    const auto [code, out] = run(
        "--mix 403.gcc,186.crafty --instr 50000 --warmup 10000 "
        "--faults zap@3");
    EXPECT_EQ(code, 2);
    EXPECT_NE(out.find("unknown fault kind"), std::string::npos);

    const auto [code2, out2] = run(
        "--mix 403.gcc,186.crafty --instr 50000 --warmup 10000 "
        "--faults nan@0");
    EXPECT_EQ(code2, 2);
}

TEST(Cli, ExecFaultKindRejectedInSimSpec)
{
    // job_crash/job_stall/torn_write/alloc_fail target the sweep
    // execution layer; the per-run --faults spec must refuse them as
    // a usage error, before any simulation.
    const auto [code, out] = run(
        "--mix 403.gcc,186.crafty --instr 50000 --warmup 10000 "
        "--faults job_crash@3");
    EXPECT_EQ(code, 2) << out;
    EXPECT_NE(out.find("exec-level fault kind"), std::string::npos);
    EXPECT_EQ(out.find("ANTT"), std::string::npos)
        << "a usage error must not print a results table: " << out;
}

TEST(Cli, InvalidConfigurationFails)
{
    const auto [code, out] = run(
        "--mix 403.gcc,186.crafty --instr 1000 --warmup 50000");
    EXPECT_EQ(code, 2);
    EXPECT_NE(out.find("warmupInstr"), std::string::npos);

    // One program per core, and a block's owner is one byte.
    std::string mix = "403.gcc";
    for (int i = 1; i < 256; ++i)
        mix += ",403.gcc";
    const auto [code2, out2] =
        run("--mix " + mix + " --instr 1000 --warmup 100");
    EXPECT_EQ(code2, 2) << out2;
    EXPECT_NE(out2.find("at most 255"), std::string::npos) << out2;
    EXPECT_EQ(out2.find("ANTT"), std::string::npos) << out2;
}

TEST(Cli, CheckedFaultRunReportsRobustness)
{
    const auto [code, out] = run(
        "--mix 403.gcc,186.crafty --scheme PriSM-H "
        "--instr 40000 --warmup 10000 --interval 200 "
        "--checked --faults nan@2,occ@3,drop@5");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("robustness:"), std::string::npos);
    EXPECT_EQ(out.find("robustness: 0 faults"), std::string::npos);
}
