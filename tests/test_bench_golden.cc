/**
 * @file
 * Golden-stats regression: the prism_bench driver must reproduce the
 * committed fixture sweep JSON (tests/golden/BENCH_fixture.json)
 * field for field. The fixture figure pins its machine and mixes
 * (independent of the PRISM_BENCH_* scaling knobs) and the driver
 * runs with --no-timing, so the comparison can be exact: any
 * behavioural drift in the generators, cache model, schemes, runner
 * or JSON writer shows up as a diff here.
 *
 * Regenerate after an intentional behaviour change with:
 *   build/tools/prism_bench fixture --no-timing --out tests/golden
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

#ifndef PRISM_BENCH_BIN_DEFAULT
#define PRISM_BENCH_BIN_DEFAULT "tools/prism_bench"
#endif
#ifndef PRISM_GOLDEN_FILE_DEFAULT
#define PRISM_GOLDEN_FILE_DEFAULT "../tests/golden/BENCH_fixture.json"
#endif

std::string
benchBin()
{
    if (const char *p = std::getenv("PRISM_BENCH_BIN"))
        return p;
    return PRISM_BENCH_BIN_DEFAULT;
}

std::string
goldenPath()
{
    if (const char *p = std::getenv("PRISM_GOLDEN_FILE"))
        return p;
    return PRISM_GOLDEN_FILE_DEFAULT;
}

std::pair<int, std::string>
run(const std::string &args)
{
    const std::string cmd = benchBin() + " " + args + " 2>&1";
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
    EXPECT_TRUE(in.is_open()) << "cannot open " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** First line at which the two texts differ, for a readable diff. */
std::string
firstDiff(const std::string &a, const std::string &b)
{
    std::istringstream sa(a), sb(b);
    std::string la, lb;
    for (int line = 1;; ++line) {
        const bool ga = static_cast<bool>(std::getline(sa, la));
        const bool gb = static_cast<bool>(std::getline(sb, lb));
        if (!ga && !gb)
            return "no difference";
        if (la != lb || ga != gb)
            return "line " + std::to_string(line) + ": golden '" +
                   la + "' vs produced '" + lb + "'";
    }
}

} // namespace

TEST(BenchGolden, FixtureReproducesGoldenJson)
{
    char tmpl[] = "/tmp/prism_golden_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    const std::string out_dir = tmpl;

    const auto [code, out] =
        run("fixture --no-timing --out " + out_dir);
    ASSERT_EQ(code, 0) << out;
    EXPECT_NE(out.find("sweep:"), std::string::npos);

    const std::string produced =
        slurp(out_dir + "/BENCH_fixture.json");
    const std::string golden = slurp(goldenPath());
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(golden, produced) << firstDiff(golden, produced);

    std::remove((out_dir + "/BENCH_fixture.json").c_str());
    std::remove(out_dir.c_str());
}

TEST(BenchGolden, GoldenCarriesExpectedSchema)
{
    const std::string golden = slurp(goldenPath());
    EXPECT_NE(golden.find("\"schema\": \"prism-bench-v1\""),
              std::string::npos);
    EXPECT_NE(golden.find("\"sweep\": \"fixture\""),
              std::string::npos);
    // Timing must never be committed: it would break reproduction.
    EXPECT_EQ(golden.find("\"timing\""), std::string::npos);
    EXPECT_EQ(golden.find("wall_seconds"), std::string::npos);
}

TEST(BenchTrace, OversizedCapacityMatchesTheDefaultTrace)
{
    // Every job's recorder once reserved its whole capacity up front:
    // at 10^11 intervals all ten jobs were quarantined on
    // std::bad_alloc. The capacity is only a bound now, and a trace
    // records none, so the two traces are byte-identical.
    char tmpl[] = "/tmp/prism_trace_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    const std::string dir = tmpl;
    const std::string big = dir + "/big.json";
    const std::string def = dir + "/def.json";

    const auto [code, out] =
        run("fixture --no-timing --no-json --trace " + big +
            " --trace-capacity 100000000000");
    EXPECT_EQ(code, 0) << out;
    EXPECT_EQ(out.find("quarantined"), std::string::npos) << out;
    const auto [def_code, def_out] =
        run("fixture --no-timing --no-json --trace " + def);
    EXPECT_EQ(def_code, 0) << def_out;
    const std::string trace = slurp(big);
    EXPECT_NE(trace.find("prism-trace-v1"), std::string::npos);
    EXPECT_EQ(trace, slurp(def)) << firstDiff(slurp(def), trace);

    std::remove(big.c_str());
    std::remove(def.c_str());
    std::remove(dir.c_str());
}

TEST(BenchGolden, UnknownFigureFails)
{
    const auto [code, out] = run("no_such_figure --no-json");
    EXPECT_EQ(code, 2);
    EXPECT_NE(out.find("unknown figure"), std::string::npos);
}

TEST(BenchGolden, ListIncludesHeadlineFigures)
{
    const auto [code, out] = run("--list");
    EXPECT_EQ(code, 0);
    // Every figure and ablation of the evaluation, each of which once
    // had a binary of its own.
    for (const char *id :
         {"fig01a_scalability", "fig01b_finegrain", "fig02_summary",
          "fig03a_quad", "fig03b_32core", "fig04_occupancy",
          "fig05_waypart", "fig06_16way", "fig07_vantage",
          "fig08_vantage_misses", "fig09_fairness", "fig10_qos",
          "fig11_evprob", "fig12_bits", "fig13_victimless", "sec56_dip",
          "ablation_interval", "ablation_repl", "ablation_alloc"})
        EXPECT_NE(out.find(std::string(id) + "\n"), std::string::npos)
            << id;
    // Hidden fixtures stay out of the listing.
    EXPECT_EQ(out.find("fixture\n"), std::string::npos);
}
