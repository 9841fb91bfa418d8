/**
 * @file
 * Unit tests for the job supervisor (src/exec/supervisor): the
 * failure taxonomy, retry/backoff/quarantine semantics, deadline and
 * stop-flag handling, chaos schedules and the deterministic backoff
 * jitter. Everything runs against fake attempt bodies — no simulator
 * involved — so the suite stays sub-second.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <new>
#include <stdexcept>
#include <thread>

#include "exec/supervisor.hh"

using namespace prism;

namespace
{

SupervisorConfig
fastConfig(unsigned max_attempts = 3)
{
    SupervisorConfig c;
    c.enabled = true;
    c.maxAttempts = max_attempts;
    // Keep retries fast: the backoff schedule still runs, just in
    // microscopic steps.
    c.backoffBaseMs = 0.01;
    c.backoffCapMs = 0.05;
    return c;
}

std::vector<FaultClause>
chaos(const std::string &spec)
{
    std::vector<FaultClause> clauses;
    const Status st = parseChaosSpec(spec, clauses);
    EXPECT_TRUE(st.ok()) << st.message();
    return clauses;
}

} // namespace

// --- names ---

TEST(JobErrorKindNames, RoundTrip)
{
    for (const JobErrorKind k :
         {JobErrorKind::Transient, JobErrorKind::Fatal,
          JobErrorKind::Timeout, JobErrorKind::InvariantViolation}) {
        JobErrorKind parsed;
        ASSERT_TRUE(jobErrorKindFromName(jobErrorKindName(k), parsed));
        EXPECT_EQ(parsed, k);
    }
    JobErrorKind parsed;
    EXPECT_FALSE(jobErrorKindFromName("bogus", parsed));
}

TEST(JobStateNames, AllDistinct)
{
    EXPECT_STREQ(jobStateName(JobState::Done), "done");
    EXPECT_STREQ(jobStateName(JobState::Recovered), "recovered");
    EXPECT_STREQ(jobStateName(JobState::Quarantined), "quarantined");
    EXPECT_STREQ(jobStateName(JobState::Skipped), "skipped");
}

// --- taxonomy classification ---

TEST(Supervisor, CleanFirstTryIsDone)
{
    JobSupervisor sup(fastConfig());
    JobReport report;
    const int r = sup.supervise<int>(
        1, "job", [](const CancelToken &) { return 42; }, report);
    EXPECT_EQ(r, 42);
    EXPECT_EQ(report.state, JobState::Done);
    EXPECT_EQ(report.attempts, 1u);
    EXPECT_TRUE(report.failures.empty());
    EXPECT_TRUE(report.succeeded());
}

TEST(Supervisor, TransientFailureIsRetriedToRecovery)
{
    JobSupervisor sup(fastConfig());
    JobReport report;
    int calls = 0;
    const int r = sup.supervise<int>(
        1, "job",
        [&](const CancelToken &) {
            if (++calls == 1)
                throw JobError(JobErrorKind::Transient, "flaky");
            return 7;
        },
        report);
    EXPECT_EQ(r, 7);
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(report.state, JobState::Recovered);
    EXPECT_EQ(report.attempts, 2u);
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].kind, JobErrorKind::Transient);
    EXPECT_EQ(report.failures[0].message, "flaky");
    EXPECT_TRUE(report.succeeded());
}

TEST(Supervisor, BadAllocClassifiesTransient)
{
    JobSupervisor sup(fastConfig());
    JobReport report;
    int calls = 0;
    const int r = sup.supervise<int>(
        1, "job",
        [&](const CancelToken &) -> int {
            if (++calls == 1)
                throw std::bad_alloc();
            return 1;
        },
        report);
    EXPECT_EQ(r, 1);
    EXPECT_EQ(report.state, JobState::Recovered);
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].kind, JobErrorKind::Transient);
}

TEST(Supervisor, UnknownExceptionClassifiesFatalNoRetry)
{
    JobSupervisor sup(fastConfig(5));
    JobReport report;
    int calls = 0;
    const int r = sup.supervise<int>(
        1, "job",
        [&](const CancelToken &) -> int {
            ++calls;
            throw std::runtime_error("logic error");
        },
        report);
    EXPECT_EQ(r, 0); // default-constructed result
    EXPECT_EQ(calls, 1) << "fatal failures must not be retried";
    EXPECT_EQ(report.state, JobState::Quarantined);
    EXPECT_EQ(report.attempts, 1u);
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].kind, JobErrorKind::Fatal);
    EXPECT_FALSE(report.succeeded());
}

TEST(Supervisor, InvariantViolationQuarantinesImmediately)
{
    JobSupervisor sup(fastConfig(5));
    JobReport report;
    int calls = 0;
    (void)sup.supervise<int>(
        1, "job",
        [&](const CancelToken &) -> int {
            ++calls;
            throw JobError(JobErrorKind::InvariantViolation,
                           "corrupt state");
        },
        report);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(report.state, JobState::Quarantined);
    EXPECT_EQ(report.failures[0].kind,
              JobErrorKind::InvariantViolation);
}

TEST(Supervisor, QuarantineAfterExhaustedBudget)
{
    JobSupervisor sup(fastConfig(3));
    JobReport report;
    int calls = 0;
    (void)sup.supervise<int>(
        1, "job",
        [&](const CancelToken &) -> int {
            ++calls;
            throw JobError(JobErrorKind::Transient, "always fails");
        },
        report);
    EXPECT_EQ(calls, 3);
    EXPECT_EQ(report.state, JobState::Quarantined);
    EXPECT_EQ(report.attempts, 3u);
    EXPECT_EQ(report.failures.size(), 3u);
}

TEST(Supervisor, DeadlineCancellationClassifiesTimeout)
{
    SupervisorConfig cfg = fastConfig(2);
    cfg.deadlineSeconds = 0.02;
    JobSupervisor sup(cfg);
    JobReport report;
    int calls = 0;
    (void)sup.supervise<int>(
        1, "job",
        [&](const CancelToken &token) -> int {
            ++calls;
            // A cooperative simulation loop: poll until cancelled.
            while (true) {
                token.poll();
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            }
        },
        report);
    EXPECT_EQ(calls, 2) << "timeouts are retryable";
    EXPECT_EQ(report.state, JobState::Quarantined);
    ASSERT_EQ(report.failures.size(), 2u);
    EXPECT_EQ(report.failures[0].kind, JobErrorKind::Timeout);
    EXPECT_EQ(report.failures[1].kind, JobErrorKind::Timeout);
}

TEST(CancelToken, DeadlineBeyondTheClockIsNoDeadline)
{
    // Each of these once became a deadline in the past, so every
    // attempt was cancelled at its first poll.
    for (const double seconds :
         {std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN(), 1e300, 1e10}) {
        CancelToken token;
        token.setDeadline(seconds);
        EXPECT_FALSE(token.deadlineExceeded()) << seconds;
        EXPECT_NO_THROW(token.poll()) << seconds;
    }
    CancelToken armed;
    armed.setDeadline(1e-9);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_TRUE(armed.deadlineExceeded());
}

TEST(Supervisor, StopFlagSkipsBeforeFirstAttempt)
{
    JobSupervisor sup(fastConfig());
    std::atomic<bool> stop{true};
    JobReport report;
    int calls = 0;
    (void)sup.supervise<int>(
        1, "job",
        [&](const CancelToken &) {
            ++calls;
            return 1;
        },
        report, &stop);
    EXPECT_EQ(calls, 0);
    EXPECT_EQ(report.state, JobState::Skipped);
    EXPECT_EQ(report.attempts, 0u);
    EXPECT_FALSE(report.succeeded());
}

TEST(Supervisor, StopDuringAttemptSkipsNotTimeout)
{
    // An external stop unwinds through the same CancelledError path
    // as a deadline, but must classify as Skipped — never as a job
    // failure.
    SupervisorConfig cfg = fastConfig(3);
    cfg.deadlineSeconds = 30.0; // armed but far away
    JobSupervisor sup(cfg);
    std::atomic<bool> stop{false};
    JobReport report;
    (void)sup.supervise<int>(
        1, "job",
        [&](const CancelToken &token) -> int {
            stop.store(true);
            token.poll();
            return 1;
        },
        report, &stop);
    EXPECT_EQ(report.state, JobState::Skipped);
    EXPECT_TRUE(report.failures.empty());
}

// --- chaos schedules ---

TEST(ChaosSpec, ParsesExecKindsAndAttemptBounds)
{
    const auto clauses = chaos("job_crash@3*1,alloc_fail@5");
    ASSERT_EQ(clauses.size(), 2u);
    EXPECT_EQ(clauses[0].kind, FaultKind::JobCrash);
    EXPECT_EQ(clauses[0].period, 3u);
    EXPECT_EQ(clauses[0].attempts, 1u);
    EXPECT_EQ(clauses[1].kind, FaultKind::AllocFail);
    EXPECT_EQ(clauses[1].attempts, 0u); // every attempt
}

TEST(ChaosSpec, RejectsSimulationKinds)
{
    std::vector<FaultClause> out;
    const Status st = parseChaosSpec("nan@3", out);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message().find("simulation-level"),
              std::string::npos);
}

TEST(ChaosSpec, AttemptBoundGovernsRefiring)
{
    FaultClause first_only{FaultKind::JobCrash, 3, 0, 1};
    EXPECT_TRUE(first_only.firesAtAttempt(1));
    EXPECT_FALSE(first_only.firesAtAttempt(2));
    FaultClause always{FaultKind::JobCrash, 3, 0, 0};
    EXPECT_TRUE(always.firesAtAttempt(1));
    EXPECT_TRUE(always.firesAtAttempt(100));
}

TEST(Supervisor, ChaosFiresSelectsJobsByIndex)
{
    SupervisorConfig cfg = fastConfig();
    cfg.chaos = chaos("job_crash@3*1");
    JobSupervisor sup(cfg);
    EXPECT_FALSE(sup.chaosFires(FaultKind::JobCrash, 1, 1));
    EXPECT_FALSE(sup.chaosFires(FaultKind::JobCrash, 2, 1));
    EXPECT_TRUE(sup.chaosFires(FaultKind::JobCrash, 3, 1));
    EXPECT_FALSE(sup.chaosFires(FaultKind::JobCrash, 3, 2));
    EXPECT_TRUE(sup.chaosFires(FaultKind::JobCrash, 6, 1));
    EXPECT_FALSE(sup.chaosFires(FaultKind::AllocFail, 3, 1));
}

TEST(Supervisor, InjectedCrashOnFirstAttemptIsSalvaged)
{
    SupervisorConfig cfg = fastConfig();
    cfg.chaos = chaos("job_crash@2*1");
    JobSupervisor sup(cfg);

    JobReport report;
    const int hit = sup.supervise<int>(
        2, "hit", [](const CancelToken &) { return 5; }, report);
    EXPECT_EQ(hit, 5);
    EXPECT_EQ(report.state, JobState::Recovered);
    EXPECT_EQ(report.attempts, 2u);

    const int missed = sup.supervise<int>(
        3, "missed", [](const CancelToken &) { return 6; }, report);
    EXPECT_EQ(missed, 6);
    EXPECT_EQ(report.state, JobState::Done);
}

TEST(Supervisor, UnboundedCrashQuarantines)
{
    SupervisorConfig cfg = fastConfig(3);
    cfg.chaos = chaos("job_crash@1");
    JobSupervisor sup(cfg);
    JobReport report;
    (void)sup.supervise<int>(
        1, "doomed", [](const CancelToken &) { return 1; }, report);
    EXPECT_EQ(report.state, JobState::Quarantined);
    EXPECT_EQ(report.attempts, 3u);
}

TEST(Supervisor, InjectedAllocFailClassifiesTransient)
{
    SupervisorConfig cfg = fastConfig();
    cfg.chaos = chaos("alloc_fail@1*1");
    JobSupervisor sup(cfg);
    JobReport report;
    const int r = sup.supervise<int>(
        1, "job", [](const CancelToken &) { return 9; }, report);
    EXPECT_EQ(r, 9);
    EXPECT_EQ(report.state, JobState::Recovered);
    ASSERT_GE(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].kind, JobErrorKind::Transient);
}

TEST(Supervisor, InjectedStallHitsTheDeadline)
{
    SupervisorConfig cfg = fastConfig(1);
    cfg.deadlineSeconds = 0.02;
    cfg.chaos = chaos("job_stall@1");
    JobSupervisor sup(cfg);
    JobReport report;
    (void)sup.supervise<int>(
        1, "stalled", [](const CancelToken &) { return 1; }, report);
    EXPECT_EQ(report.state, JobState::Quarantined);
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].kind, JobErrorKind::Timeout);
}

TEST(Supervisor, InjectedStallWithoutDeadlineResolves)
{
    SupervisorConfig cfg = fastConfig();
    cfg.stallMs = 5.0; // keep the hiccup tiny
    cfg.chaos = chaos("job_stall@1*1");
    JobSupervisor sup(cfg);
    JobReport report;
    const int r = sup.supervise<int>(
        1, "hiccup", [](const CancelToken &) { return 3; }, report);
    EXPECT_EQ(r, 3);
    EXPECT_EQ(report.state, JobState::Done)
        << "an unbounded stall is a delay, not a failure";
}

// --- deterministic backoff ---

TEST(Supervisor, BackoffFollowsExponentialEnvelope)
{
    SupervisorConfig cfg;
    cfg.enabled = true;
    cfg.backoffBaseMs = 8.0;
    cfg.backoffCapMs = 100.0;
    JobSupervisor sup(cfg);
    for (unsigned n = 1; n <= 8; ++n) {
        double base = 8.0;
        for (unsigned i = 1; i < n; ++i)
            base *= 2.0;
        if (base > 100.0)
            base = 100.0;
        const double ms = sup.backoffMs("w/s", n);
        EXPECT_GE(ms, base * 0.5) << "attempt " << n;
        EXPECT_LT(ms, base * 1.5) << "attempt " << n;
    }
}

TEST(Supervisor, BackoffIsDeterministicPerSeedAndJob)
{
    SupervisorConfig cfg;
    cfg.enabled = true;
    cfg.chaosSeed = 99;
    JobSupervisor a(cfg), b(cfg);
    EXPECT_EQ(a.backoffMs("job-a", 1), b.backoffMs("job-a", 1));
    EXPECT_EQ(a.backoffMs("job-a", 3), b.backoffMs("job-a", 3));
    // Decorrelated across jobs and attempts.
    EXPECT_NE(a.backoffMs("job-a", 1), a.backoffMs("job-b", 1));

    SupervisorConfig other = cfg;
    other.chaosSeed = 100;
    JobSupervisor c(other);
    EXPECT_NE(a.backoffMs("job-a", 1), c.backoffMs("job-a", 1));
}

// --- metrics plumbing ---

TEST(Supervisor, CountersOnlyAppearWhenEventsFire)
{
    telemetry::MetricsRegistry metrics;
    JobSupervisor clean(fastConfig(), &metrics);
    JobReport report;
    (void)clean.supervise<int>(
        1, "ok", [](const CancelToken &) { return 1; }, report);
    // A clean run must not register any exec.* counter: the trace
    // metrics dump stays byte-identical to an unsupervised run.
    EXPECT_TRUE(metrics.counterValues().empty());

    (void)clean.supervise<int>(
        1, "retries",
        [&, first = true](const CancelToken &) mutable {
            if (first) {
                first = false;
                throw JobError(JobErrorKind::Transient, "once");
            }
            return 2;
        },
        report);
    EXPECT_EQ(report.state, JobState::Recovered);
    EXPECT_EQ(metrics.counter("exec.retries").value(), 1u);
    EXPECT_EQ(metrics.counter("exec.recovered").value(), 1u);
}
