/**
 * @file
 * Tests for the fault-injection harness, the invariant auditor and
 * PriSM's graceful-degradation paths: deterministic schedules, spec
 * parsing, counter plumbing, and — most importantly — that injected
 * corruption degrades behaviour observably instead of aborting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "cache/shared_cache.hh"
#include "fault/fault_injector.hh"
#include "fault/invariant_auditor.hh"
#include "prism/alloc_hitmax.hh"
#include "prism/prism_scheme.hh"
#include "sim/runner.hh"

using namespace prism;

namespace
{

std::vector<FaultClause>
parseOk(const std::string &spec)
{
    std::vector<FaultClause> clauses;
    const Status st = parseFaultSpec(spec, clauses);
    EXPECT_TRUE(st.ok()) << st.message();
    return clauses;
}

/** Small, fast machine with frequent recomputes. */
MachineConfig
tinyPair()
{
    MachineConfig m;
    m.numCores = 2;
    m.llcBytes = 64ull << 10; // 1024 blocks, 256 sets
    m.llcWays = 4;
    m.intervalMisses = 200;
    m.instrBudget = 60'000;
    m.warmupInstr = 15'000;
    return m;
}

const char *kSpec = "nan@2,occ@3,drop@5,quant@4,shadow@6,stale@7,inf@8";

RunResult
runFaulted(std::uint64_t seed, const std::string &spec, bool checked)
{
    MachineConfig m = tinyPair();
    m.seed = seed;
    Runner runner(m);
    SchemeOptions options;
    options.faultSpec = spec;
    options.checked = checked;
    Workload w{"t", {"403.gcc", "470.lbm"}};
    return runner.run(w, SchemeKind::PrismH, options);
}

} // namespace

// --- spec parsing ---

TEST(FaultSpec, ParsesClauses)
{
    const auto clauses = parseOk("nan@4,occ@3+1,drop@10");
    ASSERT_EQ(clauses.size(), 3u);
    EXPECT_EQ(clauses[0].kind, FaultKind::PoisonNan);
    EXPECT_EQ(clauses[0].period, 4u);
    EXPECT_EQ(clauses[0].phase, 0u);
    EXPECT_EQ(clauses[1].kind, FaultKind::CorruptOccupancy);
    EXPECT_EQ(clauses[1].period, 3u);
    EXPECT_EQ(clauses[1].phase, 1u);
    EXPECT_EQ(clauses[2].kind, FaultKind::DropRecompute);
    EXPECT_EQ(clauses[2].period, 10u);
}

TEST(FaultSpec, EveryKeywordRoundTrips)
{
    for (unsigned k = 0; k < numFaultKinds; ++k) {
        const auto kind = static_cast<FaultKind>(k);
        const auto clauses =
            parseOk(std::string(faultKindName(kind)) + "@3");
        ASSERT_EQ(clauses.size(), 1u);
        EXPECT_EQ(clauses[0].kind, kind);
    }
}

TEST(FaultSpec, RejectsMalformedInput)
{
    std::vector<FaultClause> out;
    EXPECT_FALSE(parseFaultSpec("", out).ok());
    EXPECT_FALSE(parseFaultSpec("bogus@3", out).ok());
    EXPECT_FALSE(parseFaultSpec("nan", out).ok());
    EXPECT_FALSE(parseFaultSpec("nan@", out).ok());
    EXPECT_FALSE(parseFaultSpec("nan@0", out).ok());
    EXPECT_FALSE(parseFaultSpec("nan@x", out).ok());
    EXPECT_FALSE(parseFaultSpec("nan@3+", out).ok());
    EXPECT_FALSE(parseFaultSpec("nan@3+0", out).ok());
    EXPECT_FALSE(parseFaultSpec("nan@3,,occ@2", out).ok());
    const Status st = parseFaultSpec("zap@3", out);
    EXPECT_NE(st.message().find("unknown fault kind"),
              std::string::npos);
}

TEST(FaultSpec, ExecKindsAreClassified)
{
    for (const FaultKind k :
         {FaultKind::JobCrash, FaultKind::JobStall,
          FaultKind::TornWrite, FaultKind::AllocFail}) {
        EXPECT_TRUE(isExecFaultKind(k)) << faultKindName(k);
    }
    for (const FaultKind k :
         {FaultKind::CorruptOccupancy, FaultKind::StaleSnapshot,
          FaultKind::DropRecompute, FaultKind::PoisonNan,
          FaultKind::PoisonInf, FaultKind::QuantSaturate,
          FaultKind::ShadowSkew}) {
        EXPECT_FALSE(isExecFaultKind(k)) << faultKindName(k);
    }
}

TEST(FaultSpec, ParsesAttemptBoundOnExecKinds)
{
    const auto clauses = parseOk("job_crash@3*1,job_stall@2+1*2");
    ASSERT_EQ(clauses.size(), 2u);
    EXPECT_EQ(clauses[0].kind, FaultKind::JobCrash);
    EXPECT_EQ(clauses[0].period, 3u);
    EXPECT_EQ(clauses[0].attempts, 1u);
    EXPECT_EQ(clauses[1].kind, FaultKind::JobStall);
    EXPECT_EQ(clauses[1].period, 2u);
    EXPECT_EQ(clauses[1].phase, 1u);
    EXPECT_EQ(clauses[1].attempts, 2u);

    // Default: every attempt fails (the quarantine schedule).
    const auto unbounded = parseOk("alloc_fail@4");
    EXPECT_EQ(unbounded[0].attempts, 0u);
}

TEST(FaultSpec, RejectsAttemptBoundMisuse)
{
    std::vector<FaultClause> out;
    // '*attempts' belongs to the exec layer only.
    const Status st = parseFaultSpec("nan@3*1", out);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message().find("exec-level"), std::string::npos);
    EXPECT_FALSE(parseFaultSpec("job_crash@3*", out).ok());
    EXPECT_FALSE(parseFaultSpec("job_crash@3*x", out).ok());
    EXPECT_FALSE(parseFaultSpec("job_crash@*1", out).ok());
}

TEST(FaultSpec, AttemptScheduleBoundsFailingAttempts)
{
    const auto clauses = parseOk("job_crash@2*2");
    const FaultClause &c = clauses[0];
    EXPECT_FALSE(c.firesAt(1));
    EXPECT_TRUE(c.firesAt(2));
    EXPECT_TRUE(c.firesAtAttempt(1));
    EXPECT_TRUE(c.firesAtAttempt(2));
    EXPECT_FALSE(c.firesAtAttempt(3));
}

TEST(FaultSpec, ClauseFiringSchedule)
{
    FaultClause every3{FaultKind::PoisonNan, 3, 0};
    EXPECT_FALSE(every3.firesAt(1));
    EXPECT_FALSE(every3.firesAt(2));
    EXPECT_TRUE(every3.firesAt(3));
    EXPECT_TRUE(every3.firesAt(6));
    EXPECT_FALSE(every3.firesAt(7));

    FaultClause phased{FaultKind::PoisonNan, 3, 2};
    EXPECT_FALSE(phased.firesAt(1));
    EXPECT_TRUE(phased.firesAt(2));
    EXPECT_FALSE(phased.firesAt(3));
    EXPECT_TRUE(phased.firesAt(5));
    EXPECT_TRUE(phased.firesAt(8));
}

// --- injector determinism ---

TEST(FaultInjector, SameSeedSameMutations)
{
    const auto clauses = parseOk("occ@2,nan@3");
    FaultInjector a(clauses, 42), b(clauses, 42);
    for (std::uint64_t i = 1; i <= 20; ++i) {
        std::vector<std::uint64_t> occ_a{100, 200, 300};
        std::vector<std::uint64_t> occ_b{100, 200, 300};
        a.corruptOccupancy(occ_a, 1024, i);
        b.corruptOccupancy(occ_b, 1024, i);
        EXPECT_EQ(occ_a, occ_b) << "interval " << i;

        std::vector<double> ca{0.3, 0.3, 0.4}, ma{0.5, 0.25, 0.25};
        std::vector<double> cb = ca, mb = ma;
        a.poisonInputs(ca, ma, i);
        b.poisonInputs(cb, mb, i);
        for (std::size_t j = 0; j < ca.size(); ++j) {
            // NaN != NaN, so compare bit-classification + value.
            EXPECT_EQ(std::isnan(ca[j]), std::isnan(cb[j]));
            if (!std::isnan(ca[j]))
                EXPECT_EQ(ca[j], cb[j]);
        }
    }
    EXPECT_EQ(a.injected(), b.injected());
    EXPECT_GT(a.injected(), 0u);
    EXPECT_EQ(a.injectedOf(FaultKind::CorruptOccupancy), 10u);
}

TEST(FaultInjector, CountsOnlyFiringKinds)
{
    FaultInjector inj(parseOk("drop@2"), 7);
    EXPECT_FALSE(inj.dropRecompute(1));
    EXPECT_TRUE(inj.dropRecompute(2));
    EXPECT_FALSE(inj.staleSnapshot(2));
    EXPECT_EQ(inj.injected(), 1u);
    EXPECT_EQ(inj.injectedOf(FaultKind::DropRecompute), 1u);
    EXPECT_EQ(inj.injectedOf(FaultKind::StaleSnapshot), 0u);
}

TEST(FaultInjector, SaturationPushesSumAboveOne)
{
    FaultInjector inj(parseOk("quant@1"), 3);
    std::vector<double> e{0.5, 0.3, 0.2};
    EXPECT_TRUE(inj.saturateQuantisation(e, 1));
    double sum = 0.0;
    for (double v : e) {
        EXPECT_LE(v, 1.0);
        sum += v;
    }
    EXPECT_GT(sum, 1.0);
}

// --- invariant auditor ---

TEST(InvariantAuditor, AcceptsValidDistribution)
{
    InvariantAuditor auditor;
    const std::vector<double> e{0.25, 0.25, 0.5};
    EXPECT_TRUE(auditor.checkDistribution(e).ok());
    EXPECT_EQ(auditor.violations(), 0u);
}

TEST(InvariantAuditor, FlagsBadDistributions)
{
    InvariantAuditor auditor;
    const std::vector<double> short_sum{0.3, 0.3};
    const std::vector<double> with_nan{
        std::numeric_limits<double>::quiet_NaN(), 1.0};
    const std::vector<double> negative{-0.2, 1.2};
    EXPECT_FALSE(auditor.checkDistribution(short_sum).ok());
    EXPECT_FALSE(auditor.checkDistribution(with_nan).ok());
    EXPECT_FALSE(auditor.checkDistribution(negative).ok());
    EXPECT_EQ(auditor.violations(), 3u);
}

TEST(InvariantAuditor, OwnershipMatchesLiveCache)
{
    CacheConfig cfg;
    cfg.sizeBytes = 16 << 10;
    cfg.ways = 4;
    cfg.numCores = 2;
    SharedCache cache(cfg);
    for (Addr a = 0; a < 500; ++a)
        cache.access(a % 2, a * 3);
    InvariantAuditor auditor;
    const Status st = auditor.checkOwnership(cache);
    EXPECT_TRUE(st.ok()) << st.message();
}

// --- end-to-end graceful degradation ---

TEST(FaultInjection, CheckedRunSurvivesAndCounts)
{
    const RunResult res = runFaulted(1, kSpec, true);
    EXPECT_GT(res.intervals, 10u);
    EXPECT_GT(res.faultsInjected, 0u);
    EXPECT_GT(res.degradedIntervals, 0u);
    EXPECT_GT(res.invariantViolations, 0u);
    EXPECT_GT(res.ownershipRepairs, 0u);
    EXPECT_GT(res.clampedEq1Inputs, 0u);
    EXPECT_GT(res.droppedRecomputes, 0u);
    for (double ipc : res.ipc)
        EXPECT_GT(ipc, 0.0);
}

TEST(FaultInjection, UncheckedRunStillCompletes)
{
    // Without the auditor the corruption flows further, but the
    // hardened Equation 1 inputs must still keep the run alive.
    const RunResult res = runFaulted(1, kSpec, false);
    EXPECT_GT(res.faultsInjected, 0u);
    EXPECT_EQ(res.invariantViolations, 0u); // nothing audited
    EXPECT_EQ(res.ownershipRepairs, 0u);
    for (double ipc : res.ipc)
        EXPECT_GT(ipc, 0.0);
}

TEST(FaultInjection, SameSeedAndSpecReproduceCounters)
{
    const RunResult a = runFaulted(7, kSpec, true);
    const RunResult b = runFaulted(7, kSpec, true);
    EXPECT_EQ(a.faultsInjected, b.faultsInjected);
    EXPECT_EQ(a.degradedIntervals, b.degradedIntervals);
    EXPECT_EQ(a.invariantViolations, b.invariantViolations);
    EXPECT_EQ(a.ownershipRepairs, b.ownershipRepairs);
    EXPECT_EQ(a.clampedEq1Inputs, b.clampedEq1Inputs);
    EXPECT_EQ(a.droppedRecomputes, b.droppedRecomputes);
    EXPECT_EQ(a.intervals, b.intervals);
    for (std::size_t c = 0; c < a.ipc.size(); ++c)
        EXPECT_DOUBLE_EQ(a.ipc[c], b.ipc[c]);
}

TEST(FaultInjection, DifferentSeedsDifferentFaultTargets)
{
    const RunResult a = runFaulted(7, kSpec, true);
    const RunResult c = runFaulted(1234, kSpec, true);
    // The schedule is spec-driven, so the counts can coincide; the
    // run as a whole must still differ through the corrupted state.
    EXPECT_GT(c.faultsInjected, 0u);
    bool any_diff = a.intervals != c.intervals;
    for (std::size_t i = 0; i < a.ipc.size(); ++i)
        any_diff |= a.ipc[i] != c.ipc[i];
    EXPECT_TRUE(any_diff);
}

TEST(FaultInjection, DroppedRecomputesReduceRecomputeCount)
{
    const RunResult res = runFaulted(3, "drop@2", true);
    EXPECT_GT(res.intervals, 0u);
    EXPECT_LT(res.recomputes, res.intervals);
    EXPECT_EQ(res.recomputes + res.droppedRecomputes, res.intervals);
}

TEST(FaultInjection, OccupancyCorruptionRepairedWhenChecked)
{
    const RunResult res = runFaulted(5, "occ@1", true);
    EXPECT_GT(res.faultsInjected, 0u);
    EXPECT_GT(res.ownershipRepairs, 0u);
    // Repair happens at the cache, before Equation 1 ever sees the
    // corrupt counter: no input clamping should be needed.
    EXPECT_EQ(res.clampedEq1Inputs, 0u);
}

TEST(FaultInjection, BaselineSchemeSurvivesCacheFaults)
{
    MachineConfig m = tinyPair();
    Runner runner(m);
    SchemeOptions options;
    options.faultSpec = "occ@1";
    options.checked = true;
    Workload w{"t", {"403.gcc", "470.lbm"}};
    const RunResult res =
        runner.run(w, SchemeKind::Baseline, options);
    EXPECT_GT(res.faultsInjected, 0u);
    EXPECT_GT(res.ownershipRepairs, 0u);
    for (double ipc : res.ipc)
        EXPECT_GT(ipc, 0.0);
}

TEST(FaultInjection, CleanCheckedRunReportsNothing)
{
    MachineConfig m = tinyPair();
    Runner runner(m);
    SchemeOptions options;
    options.checked = true;
    Workload w{"t", {"403.gcc", "470.lbm"}};
    const RunResult res = runner.run(w, SchemeKind::PrismH, options);
    EXPECT_EQ(res.faultsInjected, 0u);
    EXPECT_EQ(res.degradedIntervals, 0u);
    EXPECT_EQ(res.invariantViolations, 0u);
    EXPECT_EQ(res.ownershipRepairs, 0u);
}

// --- scheme-level recovery (direct, no simulator) ---

TEST(PrismSchemeRecovery, RepairsSaturatedDistribution)
{
    // quant@1 multiplies the distribution up so its sum exceeds 1;
    // the auditor must catch it and the repair renormalise in place
    // without entering fallback mode.
    PrismScheme scheme(2, std::make_unique<HitMaxPolicy>(), 1);
    PrismController &ctl = scheme.controller();
    ctl.setChecked(true);

    std::vector<FaultClause> clauses = parseOk("quant@1");
    FaultInjector injector(std::move(clauses), 9);
    ctl.setFaultInjector(&injector);

    IntervalSnapshot snap;
    snap.totalBlocks = 1024;
    snap.ways = 4;
    snap.intervalMisses = 256;
    snap.cores.resize(2);
    for (auto &cs : snap.cores) {
        cs.sharedMisses = 128;
        cs.occupancyBlocks = 512;
        cs.shadowMisses = 64;
        cs.shadowHitsAtPosition.assign(4, 16.0);
    }
    scheme.onIntervalEnd(snap);

    EXPECT_GT(ctl.invariantViolations(), 0u);
    EXPECT_GT(ctl.degradedIntervals(), 0u);
    double sum = 0.0;
    for (double v : ctl.evictionProbs())
        sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_FALSE(ctl.fallbackActive());
}
