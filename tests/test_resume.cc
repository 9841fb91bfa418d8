/**
 * @file
 * End-to-end fault-tolerance tests for prism_bench, exercised as a
 * subprocess: crash-safe checkpoint/resume byte-identity (a SIGKILLed
 * sweep resumed with --resume merges to exactly the bytes of an
 * uninterrupted run, at any thread count and with PriSM-WM's backend
 * fields), chaos-injected failure salvage and quarantine, the
 * non-zero exit contract, the SIGTERM stop contract, corrupt
 * checkpoint recovery, and prism_doctor's checkpoint/manifest
 * verdicts. This is the acceptance suite for docs/RELIABILITY.md.
 */

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/json.hh"

namespace
{

std::string
benchBin()
{
    if (const char *p = std::getenv("PRISM_BENCH_BIN"))
        return p;
#ifdef PRISM_BENCH_BIN_DEFAULT
    return PRISM_BENCH_BIN_DEFAULT;
#else
    return "tools/prism_bench";
#endif
}

std::string
goldenPath()
{
#ifdef PRISM_BENCH_GOLDEN_DEFAULT
    return PRISM_BENCH_GOLDEN_DEFAULT;
#else
    return "../tests/golden/BENCH_fixture.json";
#endif
}

std::string
doctorBin()
{
    if (const char *p = std::getenv("PRISM_DOCTOR_BIN"))
        return p;
#ifdef PRISM_DOCTOR_BIN_DEFAULT
    return PRISM_DOCTOR_BIN_DEFAULT;
#else
    return "tools/prism_doctor";
#endif
}

/**
 * Run a command, capture stdout+stderr, return (status, output).
 * The status is the raw wait status: exitCode() decodes it, and a
 * SIGKILLed child reports signalled() instead of a clean exit.
 */
struct RunOutcome
{
    int status = 0;
    std::string out;

    int
    exitCode() const
    {
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

    bool
    cleanExit() const
    {
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
};

RunOutcome
run(const std::string &bin, const std::string &args)
{
    const std::string cmd = bin + " " + args + " 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    RunOutcome r;
    std::array<char, 4096> buf;
    while (std::size_t n = std::fread(buf.data(), 1, buf.size(), pipe))
        r.out.append(buf.data(), n);
    r.status = pclose(pipe);
    return r;
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

/** Fresh scratch directory under the test temp dir. */
std::string
scratchDir(const std::string &name)
{
    const std::string dir = testing::TempDir() + "resume_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** Jobs listed in the checkpoint at @p path; 0 while unreadable. */
std::size_t
checkpointJobs(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return 0;
    std::ostringstream text;
    text << in.rdbuf();
    prism::JsonValue doc;
    if (!prism::parseJson(text.str(), doc).ok())
        return 0;
    const prism::JsonValue *jobs = doc.find("jobs");
    return jobs ? jobs->elements().size() : 0;
}

/** The fixture sweep's JSON with stable (timing-free) bytes. */
std::string
benchFixture(const std::string &out_dir, const std::string &extra = "")
{
    return "fixture --no-timing --out " + out_dir +
           (extra.empty() ? "" : " " + extra);
}

} // namespace

// --- crash-safe checkpoint / resume ---

class ResumeByteIdentity : public testing::TestWithParam<unsigned>
{
};

TEST_P(ResumeByteIdentity, KilledSweepResumesToIdenticalBytes)
{
    const unsigned threads = GetParam();
    const std::string tag = "bytes_t" + std::to_string(threads);
    const std::string base_dir = scratchDir(tag + "_base");
    const std::string res_dir = scratchDir(tag + "_res");
    const std::string ckpt = base_dir + "/fixture.ckpt.json";
    const std::string threads_arg =
        "--threads " + std::to_string(threads);

    // Uninterrupted reference run.
    const RunOutcome ref =
        run(benchBin(), benchFixture(base_dir, threads_arg));
    ASSERT_TRUE(ref.cleanExit()) << ref.out;
    const std::string golden = slurp(base_dir + "/BENCH_fixture.json");

    // Interrupted run: SIGKILL after the third checkpointed job.
    const RunOutcome killed = run(
        benchBin(), benchFixture(res_dir, threads_arg + " --ckpt " +
                                              ckpt + " --die-after 3"));
    EXPECT_FALSE(killed.cleanExit())
        << "--die-after must kill the process: " << killed.out;
    ASSERT_TRUE(std::filesystem::exists(ckpt))
        << "the checkpoint must survive the kill";

    // Resume and compare bytes.
    const RunOutcome resumed = run(
        benchBin(), benchFixture(res_dir, threads_arg + " --ckpt " +
                                              ckpt + " --resume"));
    ASSERT_TRUE(resumed.cleanExit()) << resumed.out;
    EXPECT_NE(resumed.out.find("resume: restoring"),
              std::string::npos)
        << resumed.out;
    EXPECT_EQ(slurp(res_dir + "/BENCH_fixture.json"), golden)
        << "resumed sweep must merge to byte-identical output";

    // A finished sweep reclaims its checkpoint.
    EXPECT_FALSE(std::filesystem::exists(ckpt));

    std::filesystem::remove_all(base_dir);
    std::filesystem::remove_all(res_dir);
}

INSTANTIATE_TEST_SUITE_P(Threads, ResumeByteIdentity,
                         testing::Values(1u, 2u, 8u));

TEST(Resume, KilledWayMaskSweepKeepsPrismWmBackendFields)
{
    // PriSM-WM results also write "plane" and "way_quant_error"; a
    // job restored from the checkpoint must write them as well. On
    // one thread the third checkpointed job is Q1/PriSM-WM.
    const std::string base_dir = scratchDir("waymask_base");
    const std::string res_dir = scratchDir("waymask_res");
    const std::string ckpt = res_dir + "/waymask.ckpt.json";
    const std::string bench =
        "PRISM_BENCH_SCALE=0.02 PRISM_BENCH_WORKLOADS=1 " + benchBin();
    const std::string sweep = "waymask --no-timing --threads 1 --out ";

    const RunOutcome ref = run(bench, sweep + base_dir);
    ASSERT_TRUE(ref.cleanExit()) << ref.out;
    const std::string golden = slurp(base_dir + "/BENCH_waymask.json");
    ASSERT_NE(golden.find("\"plane\": \"way-mask\""), std::string::npos)
        << golden;

    const RunOutcome killed =
        run(bench, sweep + res_dir + " --ckpt " + ckpt + " --die-after 3");
    EXPECT_FALSE(killed.cleanExit()) << killed.out;
    ASSERT_EQ(checkpointJobs(ckpt), 3u);

    const RunOutcome resumed =
        run(bench, sweep + res_dir + " --ckpt " + ckpt + " --resume");
    ASSERT_TRUE(resumed.cleanExit()) << resumed.out;
    EXPECT_NE(resumed.out.find("resume: restoring 3"), std::string::npos)
        << resumed.out;
    EXPECT_EQ(slurp(res_dir + "/BENCH_waymask.json"), golden)
        << "the restored PriSM-WM job must keep its backend fields";

    std::filesystem::remove_all(base_dir);
    std::filesystem::remove_all(res_dir);
}

TEST(Resume, SigtermSavesCheckpointAndResumesToGolden)
{
    const std::string dir = scratchDir("sigterm");
    const std::string ckpt = dir + "/fixture.ckpt.json";
    const std::string log = dir + "/interrupted.log";

    // Job 4 stalls until it is cancelled (the deadline keeps the
    // stall from timing out on its own), so the sweep waits there
    // with jobs 1-3 checkpointed until the signal arrives.
    const std::string cmd =
        "exec " + benchBin() + " " +
        benchFixture(dir, "--threads 1 --ckpt " + ckpt +
                              " --deadline 60 --chaos job_stall@4") +
        " >" + log + " 2>&1";
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        execl("/bin/sh", "sh", "-c", cmd.c_str(),
              static_cast<char *>(nullptr));
        _exit(127);
    }

    // Poll for the checkpoint instead of sleeping a fixed time.
    bool saved = false;
    int status = 0;
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(50);
    while (!saved && std::chrono::steady_clock::now() < give_up &&
           waitpid(pid, &status, WNOHANG) == 0) {
        saved = checkpointJobs(ckpt) == 3;
        if (!saved)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (saved) {
        ASSERT_EQ(kill(pid, SIGTERM), 0);
        ASSERT_EQ(waitpid(pid, &status, 0), pid);
    } else if (waitpid(pid, &status, WNOHANG) == 0) {
        kill(pid, SIGKILL);
        waitpid(pid, &status, 0);
    }
    const std::string out = slurp(log);
    ASSERT_TRUE(saved) << "the checkpoint never listed 3 jobs: " << out;

    ASSERT_TRUE(WIFEXITED(status)) << out;
    EXPECT_EQ(WEXITSTATUS(status), 130) << out;
    EXPECT_NE(out.find("interrupted; 3 completed job(s) saved"),
              std::string::npos)
        << out;
    EXPECT_TRUE(std::filesystem::exists(ckpt))
        << "the final flush must keep the checkpoint";
    EXPECT_FALSE(std::filesystem::exists(dir + "/BENCH_fixture.json"))
        << "an interrupted sweep must not write its document";

    // Resuming without the chaos finishes the sweep, merges to the
    // golden bytes and reclaims the checkpoint.
    const RunOutcome resumed = run(
        benchBin(),
        benchFixture(dir, "--threads 1 --ckpt " + ckpt + " --resume"));
    ASSERT_TRUE(resumed.cleanExit()) << resumed.out;
    EXPECT_NE(resumed.out.find("resume: restoring 3"),
              std::string::npos)
        << resumed.out;
    EXPECT_EQ(slurp(dir + "/BENCH_fixture.json"), slurp(goldenPath()))
        << "the resumed sweep must reproduce the golden bytes";
    EXPECT_FALSE(std::filesystem::exists(ckpt));

    std::filesystem::remove_all(dir);
}

TEST(Resume, MissingCheckpointRunsFullSweep)
{
    const std::string dir = scratchDir("missing_ckpt");
    const RunOutcome r = run(
        benchBin(),
        benchFixture(dir, "--ckpt " + dir + "/none.ckpt.json --resume"));
    EXPECT_TRUE(r.cleanExit()) << r.out;
    EXPECT_NE(r.out.find("resume: no checkpoint"), std::string::npos);
    EXPECT_TRUE(
        std::filesystem::exists(dir + "/BENCH_fixture.json"));
    std::filesystem::remove_all(dir);
}

TEST(Resume, CorruptCheckpointRestartsFromScratch)
{
    const std::string dir = scratchDir("corrupt_ckpt");
    const std::string ckpt = dir + "/fixture.ckpt.json";
    {
        std::ofstream out(ckpt);
        out << "{\"schema\": \"prism-ckpt-v1\", \"jobs\": [tru";
    }
    const RunOutcome r = run(
        benchBin(), benchFixture(dir, "--ckpt " + ckpt + " --resume"));
    EXPECT_TRUE(r.cleanExit()) << r.out;
    EXPECT_NE(r.out.find("restarting the sweep from scratch"),
              std::string::npos)
        << r.out;
    EXPECT_TRUE(
        std::filesystem::exists(dir + "/BENCH_fixture.json"));
    std::filesystem::remove_all(dir);
}

// --- chaos: salvage and quarantine ---

TEST(Chaos, FirstAttemptCrashesAreSalvaged)
{
    const std::string dir = scratchDir("salvage");
    // Crash the first attempt of jobs 3, 6, 9; the retry layer must
    // recover all three and the sweep succeed end to end.
    const RunOutcome r = run(
        benchBin(),
        benchFixture(dir, "--chaos job_crash@3*1 --chaos-seed 7"));
    EXPECT_TRUE(r.cleanExit()) << r.out;
    EXPECT_NE(r.out.find("exec: recovered 3 job(s)"),
              std::string::npos)
        << r.out;
    // The salvaged sweep's JSON carries the exec manifest.
    const std::string json = slurp(dir + "/BENCH_fixture.json");
    EXPECT_NE(json.find("\"exec\""), std::string::npos);
    EXPECT_NE(json.find("\"recovered\": 3"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Chaos, ExhaustedRetriesQuarantineAndFailTheRun)
{
    const std::string dir = scratchDir("quarantine");
    const RunOutcome r = run(
        benchBin(),
        benchFixture(dir, "--retries 0 --chaos job_crash@4"));
    EXPECT_FALSE(r.cleanExit())
        << "quarantined jobs must fail the run: " << r.out;
    EXPECT_EQ(r.exitCode(), 1) << r.out;
    // The failed jobs are named on stderr...
    EXPECT_NE(r.out.find("quarantined after"), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("exec: quarantined 2 job(s)"),
              std::string::npos)
        << r.out;
    // ...and carried as "error" objects in the JSON manifest.
    const std::string json = slurp(dir + "/BENCH_fixture.json");
    EXPECT_NE(json.find("\"error\""), std::string::npos);
    EXPECT_NE(json.find("\"quarantined\""), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Chaos, AllocFailAndCrashMixStillCompletes)
{
    const std::string dir = scratchDir("mixed");
    const RunOutcome r = run(
        benchBin(),
        benchFixture(dir,
                     "--chaos job_crash@3*1,alloc_fail@4*1 --doctor"));
    // Everything recovers, so the doctor must not fail the run...
    EXPECT_TRUE(r.cleanExit()) << r.out;
    // ...but it must surface the retried attempts as warnings.
    EXPECT_NE(r.out.find("exec"), std::string::npos) << r.out;
    std::filesystem::remove_all(dir);
}

TEST(Chaos, BadChaosSpecFails)
{
    const std::string dir = scratchDir("bad_chaos");
    const RunOutcome sim_kind =
        run(benchBin(), benchFixture(dir, "--chaos nan@3"));
    EXPECT_EQ(sim_kind.exitCode(), 2);
    EXPECT_NE(sim_kind.out.find("simulation-level"),
              std::string::npos);
    std::filesystem::remove_all(dir);
}

// --- prism_doctor integration ---

TEST(DoctorExec, FlagsQuarantinedJobsInBenchJson)
{
    const std::string dir = scratchDir("doctor_bench");
    const RunOutcome bench = run(
        benchBin(),
        benchFixture(dir, "--retries 0 --chaos job_crash@4"));
    EXPECT_EQ(bench.exitCode(), 1) << bench.out;

    const RunOutcome doc =
        run(doctorBin(), dir + "/BENCH_fixture.json");
    EXPECT_EQ(doc.exitCode(), 1)
        << "quarantined jobs must FAIL the doctor: " << doc.out;
    EXPECT_NE(doc.out.find("exec.job_quarantined"), std::string::npos)
        << doc.out;
    std::filesystem::remove_all(dir);
}

TEST(DoctorExec, ValidCheckpointPassesCorruptFails)
{
    const std::string dir = scratchDir("doctor_ckpt");
    const std::string ckpt = dir + "/fixture.ckpt.json";

    // A degraded sweep keeps its checkpoint for --resume retries;
    // that file is a valid prism-ckpt-v1 document.
    const RunOutcome bench = run(
        benchBin(), benchFixture(dir, "--retries 0 --chaos "
                                      "job_crash@4 --ckpt " +
                                          ckpt));
    EXPECT_EQ(bench.exitCode(), 1) << bench.out;
    EXPECT_NE(bench.out.find("checkpoint kept"), std::string::npos)
        << bench.out;
    ASSERT_TRUE(std::filesystem::exists(ckpt));

    const RunOutcome ok = run(doctorBin(), "--ckpt " + ckpt);
    EXPECT_TRUE(ok.cleanExit()) << ok.out;
    EXPECT_NE(ok.out.find("completed job(s)"), std::string::npos)
        << ok.out;

    // Tear the file; the doctor must flag it and exit non-zero.
    const std::string payload = slurp(ckpt);
    {
        std::ofstream torn(ckpt, std::ios::trunc);
        torn << payload.substr(0, payload.size() / 2);
    }
    const RunOutcome bad = run(doctorBin(), "--ckpt " + ckpt);
    EXPECT_EQ(bad.exitCode(), 1) << bad.out;
    EXPECT_NE(bad.out.find("FAIL"), std::string::npos) << bad.out;
    std::filesystem::remove_all(dir);
}

// --- option validation ---

TEST(ResumeCli, ResumeRequiresCheckpointPath)
{
    const RunOutcome r = run(benchBin(), "fixture --resume");
    EXPECT_EQ(r.exitCode(), 2);
    EXPECT_NE(r.out.find("--resume requires --ckpt"),
              std::string::npos);
}

TEST(ResumeCli, BadDeadlinesAndRetriesAreUsageErrors)
{
    // Each of these once ran: a --deadline the clock cannot hold
    // became a deadline in the past and quarantined every job, "abc"
    // meant no watchdog, and --retries -1 wrapped to one attempt.
    // The counts after them read "abc" as 0 threads (run on 1) and
    // "2x" as 2, wrapped a -1 snapshot cadence to 2^64-1, narrowed a
    // cadence of 2^32 to 0, and kept whatever digits led a seed or a
    // trace capacity.
    const std::string dir = scratchDir("bad_flags");
    for (const std::string &flag : std::vector<std::string>{
             "--deadline inf", "--deadline 1e300", "--deadline nan",
             "--deadline abc", "--retries -1", "--retries abc",
             "--retries 4294967295", "--threads abc", "--threads 2x",
             "--metrics-every -1 --metrics-out " + dir + "/m.json",
             "--ckpt-every 4294967296", "--chaos-seed abc",
             "--trace-capacity 5x"}) {
        const RunOutcome r = run(benchBin(), benchFixture(dir, flag));
        EXPECT_EQ(r.exitCode(), 2) << flag << ": " << r.out;
        EXPECT_NE(r.out.find("must be"), std::string::npos)
            << flag << ": " << r.out;
        EXPECT_FALSE(std::filesystem::exists(dir + "/BENCH_fixture.json"))
            << flag << " wrote a document";
    }
    // A long deadline the clock can hold arms a watchdog that never
    // fires.
    const RunOutcome ok =
        run(benchBin(), benchFixture(dir, "--deadline 1e9 --retries 0"));
    EXPECT_TRUE(ok.cleanExit()) << ok.out;
    std::filesystem::remove_all(dir);
}

TEST(ResumeCli, MalformedBenchEnvIsAUsageError)
{
    // Each of these once ran a sweep: a typo in the workload cap
    // meant the full suites, -1 wrapped to 4294967295 workloads, "2x"
    // meant 2, malformed or non-positive scales fell back to x1
    // silently, and 1e400 overflowed the instruction budget.
    const std::string dir = scratchDir("bad_env");
    for (const char *env :
         {"PRISM_BENCH_WORKLOADS=abc", "PRISM_BENCH_WORKLOADS=-1",
          "PRISM_BENCH_WORKLOADS=2x", "PRISM_BENCH_SCALE=abc",
          "PRISM_BENCH_SCALE=-2", "PRISM_BENCH_SCALE=0",
          "PRISM_BENCH_SCALE=1e400"}) {
        const std::string name(env, std::string(env).find('='));
        const RunOutcome r =
            run(std::string(env) + " " + benchBin(), benchFixture(dir));
        EXPECT_EQ(r.exitCode(), 2) << env << ": " << r.out;
        EXPECT_NE(r.out.find(name + " must be"), std::string::npos)
            << env << ": " << r.out;
        EXPECT_FALSE(std::filesystem::exists(dir + "/BENCH_fixture.json"))
            << env << " wrote a document";
    }
    std::filesystem::remove_all(dir);
}
