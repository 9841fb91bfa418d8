/**
 * @file
 * prism_doctor end-to-end: the committed verdict golden
 * (tests/golden/DOCTOR_fixture.json; regenerate with
 * PRISM_UPDATE_GOLDEN=1), FAIL exit codes on fault-forced runs, the
 * bench regression comparator against the BENCH golden, and the
 * determinism contract — `prism_bench --doctor-json` must emit
 * byte-identical verdicts at 1, 2 and 8 threads.
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

#ifndef PRISM_DOCTOR_BIN_DEFAULT
#define PRISM_DOCTOR_BIN_DEFAULT "tools/prism_doctor"
#endif
#ifndef PRISM_BENCH_BIN_DEFAULT
#define PRISM_BENCH_BIN_DEFAULT "tools/prism_bench"
#endif
#ifndef PRISM_DOCTOR_GOLDEN_DEFAULT
#define PRISM_DOCTOR_GOLDEN_DEFAULT \
    "../tests/golden/DOCTOR_fixture.json"
#endif
#ifndef PRISM_BENCH_GOLDEN_DEFAULT
#define PRISM_BENCH_GOLDEN_DEFAULT \
    "../tests/golden/BENCH_fixture.json"
#endif

/** The fixture run the DOCTOR golden was generated from. */
const char *const kFixtureRun =
    "--mix 403.gcc,186.crafty --scheme PriSM-H "
    "--instr 60000 --warmup 15000 --interval 1024";

std::string
doctorBin()
{
    if (const char *p = std::getenv("PRISM_DOCTOR_BIN"))
        return p;
    return PRISM_DOCTOR_BIN_DEFAULT;
}

std::string
benchBin()
{
    if (const char *p = std::getenv("PRISM_BENCH_BIN"))
        return p;
    return PRISM_BENCH_BIN_DEFAULT;
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
    char tmpl[] = "/tmp/prism_doctor_XXXXXX";
    const char *dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return dir;
}

} // namespace

TEST(DoctorCli, FixtureRunReproducesGoldenVerdict)
{
    const std::string dir = tempDir();
    const std::string json = dir + "/doctor.json";
    const auto [code, out] = run(doctorBin() + " --run \"" +
                                 kFixtureRun + "\" --quiet --json " +
                                 json);
    ASSERT_EQ(code, 0) << out;

    const std::string produced = slurp(json);
    if (std::getenv("PRISM_UPDATE_GOLDEN")) {
        std::ofstream golden(PRISM_DOCTOR_GOLDEN_DEFAULT,
                             std::ios::binary);
        ASSERT_TRUE(golden.is_open());
        golden << produced;
        GTEST_SKIP() << "golden updated";
    }
    const std::string golden = slurp(PRISM_DOCTOR_GOLDEN_DEFAULT);
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(golden, produced)
        << "verdict drifted from the committed golden; regenerate "
           "with PRISM_UPDATE_GOLDEN=1 if the change is intentional";

    std::remove(json.c_str());
    std::remove(dir.c_str());
}

TEST(DoctorCli, HealthyRunPrintsReportAndPasses)
{
    const auto [code, out] =
        run(doctorBin() + " --run \"" + std::string(kFixtureRun) +
            "\"");
    EXPECT_EQ(code, 0) << out;
    EXPECT_NE(out.find("tracking.converge_interval"),
              std::string::npos);
    EXPECT_NE(out.find("overall: PASS"), std::string::npos) << out;
}

TEST(DoctorCli, FaultForcedRunFails)
{
    // Aggressive seeded faults in checked mode force degraded
    // intervals / invariant repairs — the doctor must FAIL (exit 1).
    const auto [code, out] = run(
        doctorBin() +
        " --run \"--mix 403.gcc,186.crafty --scheme PriSM-H"
        " --instr 40000 --warmup 10000 --interval 200 --bits 6"
        " --checked --faults nan@2,occ@3,drop@5,quant@4,stale@7\"");
    EXPECT_EQ(code, 1) << out;
    EXPECT_NE(out.find("overall: FAIL"), std::string::npos) << out;
}

TEST(DoctorCli, CompareGoldenAgainstItselfPasses)
{
    const auto [code, out] =
        run(doctorBin() + " --compare " + PRISM_BENCH_GOLDEN_DEFAULT +
            " " + PRISM_BENCH_GOLDEN_DEFAULT);
    EXPECT_EQ(code, 0) << out;
    EXPECT_NE(out.find("overall: PASS"), std::string::npos) << out;
}

TEST(DoctorCli, ComparePerturbedFails)
{
    const std::string golden = slurp(PRISM_BENCH_GOLDEN_DEFAULT);
    ASSERT_FALSE(golden.empty());
    const std::size_t pos = golden.find("\"intervals\": ");
    ASSERT_NE(pos, std::string::npos);
    std::string perturbed = golden;
    // Bump the first digit of the value ("intervals": N...): a
    // one-count behavioural drift the gate must catch.
    char &digit = perturbed[pos + 13];
    ASSERT_TRUE(digit >= '0' && digit <= '9') << digit;
    digit = digit == '9' ? '8' : digit + 1;

    const std::string dir = tempDir();
    const std::string path = dir + "/perturbed.json";
    {
        std::ofstream f(path, std::ios::binary);
        f << perturbed;
    }
    const auto [code, out] =
        run(doctorBin() + " --compare " + PRISM_BENCH_GOLDEN_DEFAULT +
            " " + path);
    EXPECT_EQ(code, 1) << out;
    EXPECT_NE(out.find("compare.metric"), std::string::npos) << out;

    std::remove(path.c_str());
    std::remove(dir.c_str());
}

TEST(DoctorCli, UsageErrorsExitTwo)
{
    EXPECT_EQ(run(doctorBin()).first, 2);
    EXPECT_EQ(run(doctorBin() + " --no-such-flag").first, 2);
    EXPECT_EQ(run(doctorBin() + " /no/such/file.json").first, 2);
    EXPECT_EQ(run(doctorBin() + " --compare one.json").first, 2);
    // A NaN or infinite tolerance would let any drift pass the gate.
    const std::string compare = doctorBin() + " --compare " +
                                PRISM_BENCH_GOLDEN_DEFAULT + " " +
                                PRISM_BENCH_GOLDEN_DEFAULT;
    EXPECT_EQ(run(compare + " --tolerance nan").first, 2);
    EXPECT_EQ(run(compare + " --tolerance ipc=inf").first, 2);
}

TEST(DoctorCli, BenchDoctorVerdictsAreThreadCountInvariant)
{
    const std::string dir = tempDir();
    std::array<std::string, 3> produced;
    const std::array<int, 3> threads = {1, 2, 8};
    for (std::size_t i = 0; i < threads.size(); ++i) {
        const std::string json =
            dir + "/doc" + std::to_string(threads[i]) + ".json";
        const auto [code, out] =
            run(benchBin() + " fixture --no-json --doctor-json " +
                json + " --threads " + std::to_string(threads[i]));
        ASSERT_EQ(code, 0) << out;
        produced[i] = slurp(json);
        std::remove(json.c_str());
    }
    ASSERT_FALSE(produced[0].empty());
    EXPECT_EQ(produced[0], produced[1])
        << "--doctor-json differs between 1 and 2 threads";
    EXPECT_EQ(produced[0], produced[2])
        << "--doctor-json differs between 1 and 8 threads";
    std::remove(dir.c_str());
}
