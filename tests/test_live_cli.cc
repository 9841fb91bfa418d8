/**
 * @file
 * Live observability plane, end-to-end over the real binaries:
 * `prism_serve --metrics-out` snapshots must be byte-identical at 1
 * and 8 threads for a fixed op budget, `prism_top --once` must
 * render them, `prism_doctor` must autodetect the prism-metrics-v1
 * schema and grade a final snapshot exactly as `prism_serve
 * --doctor` graded the run, and the flag-validation exits must hold.
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

#ifndef PRISM_SERVE_BIN_DEFAULT
#define PRISM_SERVE_BIN_DEFAULT "tools/prism_serve"
#endif
#ifndef PRISM_TOP_BIN_DEFAULT
#define PRISM_TOP_BIN_DEFAULT "tools/prism_top"
#endif
#ifndef PRISM_DOCTOR_BIN_DEFAULT
#define PRISM_DOCTOR_BIN_DEFAULT "tools/prism_doctor"
#endif

/** The serve fixture's store (test_serve_determinism) with three
 *  identical tenants and a whole-round budget: 48 rounds, 9
 *  intervals. */
const char *const kFixtureFlags =
    "--tenants 3 --keys 40000 --capacity-mb 4 --shards 16 "
    "--streams 8 --batch 1024 --interval 8192 --ops 393216 "
    "--no-timing --seed 2012 --quiet";

std::string
serveBin()
{
    if (const char *p = std::getenv("PRISM_SERVE_BIN"))
        return p;
    return PRISM_SERVE_BIN_DEFAULT;
}

std::string
topBin()
{
    if (const char *p = std::getenv("PRISM_TOP_BIN"))
        return p;
    return PRISM_TOP_BIN_DEFAULT;
}

std::string
doctorBin()
{
    if (const char *p = std::getenv("PRISM_DOCTOR_BIN"))
        return p;
    return PRISM_DOCTOR_BIN_DEFAULT;
}

std::pair<int, std::string>
run(const std::string &cmd)
{
    FILE *pipe = popen((cmd + " 2>&1").c_str(), "r");
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

std::string
tempDir()
{
    char tmpl[] = "/tmp/prism_live_XXXXXX";
    const char *dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return dir;
}

/** One fixture serve run with the live plane on. */
int
serveWithMetrics(const std::string &dir, const std::string &tag,
                 unsigned threads, std::string *output = nullptr)
{
    const std::string cmd =
        serveBin() + " " + kFixtureFlags + " --threads " +
        std::to_string(threads) + " --doctor --window 64 " +
        "--metrics-every 6 --metrics-out " + dir + "/" + tag +
        ".json --metrics-prom " + dir + "/" + tag + ".prom";
    const auto [code, out] = run(cmd);
    if (output != nullptr)
        *output = out;
    return code;
}

} // namespace

TEST(LiveCli, ServeMetricsAreByteIdenticalAcrossThreadCounts)
{
    const std::string dir = tempDir();
    std::string out1, out8;
    ASSERT_EQ(serveWithMetrics(dir, "t1", 1, &out1), 0) << out1;
    ASSERT_EQ(serveWithMetrics(dir, "t8", 8, &out8), 0) << out8;

    const std::string json1 = slurp(dir + "/t1.json");
    EXPECT_FALSE(json1.empty());
    EXPECT_EQ(json1, slurp(dir + "/t8.json"))
        << "prism-metrics-v1 snapshots must not depend on --threads";
    EXPECT_EQ(slurp(dir + "/t1.prom"), slurp(dir + "/t8.prom"));
    EXPECT_NE(json1.find("\"schema\": \"prism-metrics-v1\""),
              std::string::npos);

    const auto [code, out] = run("rm -rf " + dir);
    (void)code;
    (void)out;
}

TEST(LiveCli, TopRendersASnapshotOnce)
{
    const std::string dir = tempDir();
    std::string serve_out;
    ASSERT_EQ(serveWithMetrics(dir, "snap", 2, &serve_out), 0)
        << serve_out;

    const auto [code, out] =
        run(topBin() + " " + dir + "/snap.json --once");
    EXPECT_EQ(code, 0) << out;
    EXPECT_NE(out.find("prism_top: serve/PriSM-H"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("tenant"), std::string::npos) << out;
    EXPECT_NE(out.find("doctor"), std::string::npos)
        << "the embedded online verdict must render: " << out;

    run("rm -rf " + dir);
}

TEST(LiveCli, TopExitsTwoOnMissingFile)
{
    const auto [code, out] =
        run(topBin() + " /nonexistent/metrics.json --once");
    EXPECT_EQ(code, 2) << out;
}

TEST(LiveCli, DoctorAutodetectsMetricsSnapshots)
{
    const std::string dir = tempDir();
    std::string serve_out;
    ASSERT_EQ(serveWithMetrics(dir, "snap", 2, &serve_out), 0)
        << serve_out;

    const auto [code, out] =
        run(doctorBin() + " " + dir + "/snap.json");
    EXPECT_EQ(code, 0) << out;
    EXPECT_NE(out.find("drift"), std::string::npos)
        << "metrics input must enable the drift checks: " << out;

    run("rm -rf " + dir);
}

TEST(LiveCli, OversizedWindowIsOnlyABound)
{
    // The window's ring once reserved K rows (and K events) up front,
    // so a K far beyond memory aborted on std::bad_alloc. Its storage
    // now grows with the intervals pushed; K only bounds it.
    const std::string dir = tempDir();
    const std::string snap = dir + "/window.json";
    const auto [code, out] =
        run(serveBin() + " --window 100000000000 --ops 1000 " +
            "--no-timing --quiet --metrics-out " + snap);
    EXPECT_EQ(code, 0) << out;
    EXPECT_NE(slurp(snap).find("\"capacity\": 100000000000"),
              std::string::npos);
    run("rm -rf " + dir);
}

TEST(LiveCli, DoctorRefusesSnapshotsFromAnotherSource)
{
    // prism_serve is the only producer of prism-metrics-v1; a sweep
    // progress snapshot, as prism_bench once wrote, is an input error.
    const std::string dir = tempDir();
    const std::string snap = dir + "/sweep.json";
    std::ofstream(snap) << R"({"schema": "prism-metrics-v1", )"
                           R"("source": "bench", "run": "fixture", )"
                           R"("round": 10, "ops": 0, "intervals": 245, )"
                           R"("sweep": {"jobs": 10, "completed": 10}})"
                        << "\n";
    const auto [code, out] = run(doctorBin() + " " + snap);
    EXPECT_EQ(code, 2) << out;
    EXPECT_NE(out.find("source 'bench'"), std::string::npos) << out;
    run("rm -rf " + dir);
}

TEST(LiveCli, ServeDoctorEqualsDoctorOnTheFinalSnapshot)
{
    // --window 4 keeps 4 of the fixture's 9 intervals in the live
    // window; both verdicts grade the final snapshot's history.
    const std::string dir = tempDir();
    const std::string snap = dir + "/final.json";
    const auto [serve_code, serve_out] =
        run(serveBin() + " " + kFixtureFlags +
            " --doctor --window 4 --metrics-out " + snap);
    const auto [doctor_code, doctor_out] =
        run(doctorBin() + " " + snap);
    EXPECT_EQ(serve_code, doctor_code) << serve_out << doctor_out;
    EXPECT_FALSE(serve_out.empty());
    EXPECT_EQ(serve_out, doctor_out)
        << "prism_serve --doctor prints the final snapshot's verdict";
    EXPECT_NE(doctor_out.find("across 9 intervals"),
              std::string::npos)
        << "the doctor grades the whole run: " << doctor_out;
    run("rm -rf " + dir);
}

TEST(LiveCli, RemovedServeDocumentFlagsAreUsageErrors)
{
    // The final --metrics-out snapshot is the serve run's only
    // document, and --doctor grades it online.
    const std::string dir = tempDir();
    const std::string json = dir + "/serve.json";
    for (const std::string &cmd :
         {serveBin() + " --ops 8192 --quiet --json " + json,
          doctorBin() + " --serve " + json,
          doctorBin() + " --metrics " + json}) {
        const auto [code, out] = run(cmd);
        EXPECT_EQ(code, 2) << cmd << ": " << out;
        EXPECT_NE(out.find("unknown option"), std::string::npos)
            << cmd << ": " << out;
    }
    EXPECT_FALSE(std::ifstream(json).is_open());
    run("rm -rf " + dir);
}

TEST(LiveCli, MetricsEveryWithoutAnOutputIsAUsageError)
{
    const auto [serve_code, serve_out] =
        run(serveBin() + " --ops 8192 --metrics-every 4");
    EXPECT_EQ(serve_code, 2) << serve_out;
}

TEST(LiveCli, OutOfRangeCountsAreUsageErrors)
{
    // Each of these once narrowed or wrapped silently: the 32-bit
    // counts became 1, the shard count rounded up to 2^32 and
    // narrowed to no shards, and the byte budget wrapped to 0.
    const std::string dir = tempDir();
    const std::string json = dir + "/serve.json";
    for (const char *flag :
         {"--threads 4294967297", "--streams 4294967297",
          "--batch 4294967297", "--shards 2147483649",
          "--capacity-mb 17592186044416"}) {
        const auto [code, out] =
            run(serveBin() + " --ops 8192 --quiet --metrics-out " +
                json + " " + flag);
        EXPECT_EQ(code, 2) << flag << ": " << out;
        EXPECT_NE(out.find("must be in [1, "), std::string::npos)
            << flag << ": " << out;
        EXPECT_FALSE(std::ifstream(json).is_open())
            << flag << " wrote a document";
    }
    run("rm -rf " + dir);
}

TEST(LiveCli, NegativeCountsAreUsageErrors)
{
    // Each of these once wrapped silently: std::stoull negates a
    // leading minus, so --seed -1 wrote a document seeded with 2^64-1
    // and prism_top rendered with a frame budget and a poll interval
    // of 2^64-1.
    const std::string dir = tempDir();
    const std::string json = dir + "/serve.json";
    const auto [serve_code, serve_out] =
        run(serveBin() + " --tenants 1 --keys 1000 --ops 20000 "
                         "--no-timing --seed -1 --metrics-out " +
            json);
    EXPECT_EQ(serve_code, 2) << serve_out;
    EXPECT_FALSE(std::ifstream(json).is_open())
        << "--seed -1 wrote a document";

    const std::string snap = dir + "/snap.json";
    const auto [snap_code, snap_out] =
        run(serveBin() + " --tenants 1 --keys 1000 --ops 20000 "
                         "--no-timing --quiet --metrics-out " +
            snap);
    ASSERT_EQ(snap_code, 0) << snap_out;
    for (const char *flag : {"--frames -1", "--interval-ms -1"}) {
        const auto [code, out] =
            run(topBin() + " " + snap + " --once " + flag);
        EXPECT_EQ(code, 2) << flag << ": " << out;
        EXPECT_NE(out.find("must be a positive integer"),
                  std::string::npos)
            << flag << ": " << out;
    }
    run("rm -rf " + dir);
}

TEST(LiveCli, SecondsTheClockCannotHoldAreUsageErrors)
{
    // Each of these once became a deadline in the past: the run
    // wrote a document of zero ops and rounds and exited 0.
    const std::string dir = tempDir();
    const std::string json = dir + "/serve.json";
    for (const char *seconds : {"inf", "nan", "1e300"}) {
        const auto [code, out] =
            run(serveBin() + " --tenants 1 --keys 1000 --seconds " +
                seconds + " --metrics-out " + json);
        EXPECT_EQ(code, 2) << seconds << ": " << out;
        EXPECT_NE(out.find("--seconds must be"), std::string::npos)
            << seconds << ": " << out;
        EXPECT_FALSE(std::ifstream(json).is_open())
            << seconds << " wrote a document";
    }
    run("rm -rf " + dir);
}
