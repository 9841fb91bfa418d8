/**
 * @file
 * Diagnostics engine unit tests on synthetic series: convergence,
 * divergence, oscillation, invariant drift, QoS/fairness attainment,
 * the sweep roll-up, the verdict document, and the bench comparator.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/compare.hh"
#include "analysis/doctor.hh"
#include "analysis/run_spec.hh"
#include "analysis/series.hh"

using namespace prism;
using namespace prism::analysis;

namespace
{

const Finding *
find(const Verdict &v, const std::string &check)
{
    for (const Finding &f : v.findings)
        if (f.check == check)
            return &f;
    return nullptr;
}

/** Series whose occupancy approaches the target geometrically. */
RunSeries
convergingSeries(std::size_t n = 32, double decay = 0.7)
{
    RunSeries s;
    s.name = "synthetic";
    s.scheme = "PriSM-H";
    s.cores = 2;
    s.hasSeries = true;
    s.prism = true;
    s.hasCounters = true;
    s.intervals = n;
    double err = 0.5;
    for (std::size_t t = 1; t <= n; ++t) {
        s.interval.push_back(t);
        s.occupancy.push_back({0.6 - err, 0.4 + err});
        s.target.push_back({0.6, 0.4});
        s.evProb.push_back({0.3, 0.7});
        err *= decay;
    }
    return s;
}

} // namespace

TEST(Doctor, ConvergingRunPasses)
{
    const Verdict v = analyze(convergingSeries());
    EXPECT_EQ(v.overall, FindingStatus::Pass)
        << findingStatusName(v.overall);

    const Finding *conv = find(v, "tracking.converge_interval");
    ASSERT_NE(conv, nullptr);
    EXPECT_EQ(conv->status, FindingStatus::Pass);

    const Finding *decay = find(v, "tracking.decay");
    ASSERT_NE(decay, nullptr);
    EXPECT_EQ(decay->status, FindingStatus::Pass);

    // A non-PriSM scheme skips the scheme-specific attainment checks.
    EXPECT_EQ(find(v, "qos.attainment")->status, FindingStatus::Skip);
    EXPECT_EQ(find(v, "fairness.attainment")->status,
              FindingStatus::Skip);
}

TEST(Doctor, DivergingRunFailsTracking)
{
    RunSeries s = convergingSeries();
    // Invert the trajectory: error grows instead of decaying.
    for (std::size_t t = 0; t < s.occupancy.size(); ++t) {
        const double err =
            0.15 + 0.01 * static_cast<double>(t);
        s.occupancy[t] = {0.6 - err, 0.4 + err};
    }
    const Verdict v = analyze(s);
    EXPECT_EQ(v.overall, FindingStatus::Fail);
    EXPECT_EQ(find(v, "tracking.converge_interval")->status,
              FindingStatus::Fail);
    const Finding *decay = find(v, "tracking.decay");
    ASSERT_NE(decay, nullptr);
    EXPECT_EQ(decay->status, FindingStatus::Warn);
}

TEST(Doctor, OscillatingDistributionWarns)
{
    RunSeries s = convergingSeries();
    for (std::size_t t = 0; t < s.evProb.size(); ++t)
        s.evProb[t] = t % 2 ? std::vector<double>{0.9, 0.1}
                            : std::vector<double>{0.1, 0.9};
    const Verdict v = analyze(s);
    EXPECT_EQ(find(v, "stability.osc_amplitude")->status,
              FindingStatus::Warn);
    EXPECT_EQ(find(v, "stability.sign_flips")->status,
              FindingStatus::Warn);
}

TEST(Doctor, DistributionDriftFailsSumInvariant)
{
    RunSeries s = convergingSeries();
    s.evProb.back() = {0.3, 0.8}; // sums to 1.1
    const Verdict v = analyze(s);
    const Finding *f = find(v, "invariants.sum_e");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->status, FindingStatus::Fail);
    EXPECT_NEAR(f->value, 0.1, 1e-12);
}

TEST(Doctor, OccupancyOverflowFails)
{
    RunSeries s = convergingSeries();
    s.occupancy.back() = {0.7, 0.5}; // 20% over capacity
    const Verdict v = analyze(s);
    EXPECT_EQ(find(v, "invariants.sum_c")->status,
              FindingStatus::Fail);
}

TEST(Doctor, FallbackEntriesFail)
{
    RunSeries s = convergingSeries();
    s.fallbackEntries = 1;
    const Verdict v = analyze(s);
    EXPECT_EQ(v.overall, FindingStatus::Fail);
    EXPECT_EQ(find(v, "robustness.fallbacks")->status,
              FindingStatus::Fail);
}

TEST(Doctor, DegradedFractionEscalates)
{
    RunSeries s = convergingSeries();
    s.degradedIntervals = 2;
    EXPECT_EQ(find(analyze(s), "robustness.degraded")->status,
              FindingStatus::Warn);
    s.degradedIntervals = s.intervals; // all degraded
    EXPECT_EQ(find(analyze(s), "robustness.degraded")->status,
              FindingStatus::Fail);
}

TEST(Doctor, QosAttainment)
{
    RunSeries s = convergingSeries();
    s.scheme = "PriSM-Q";
    s.hasPerf = true;
    s.qosTargetFrac = 0.8;
    s.ipcStandalone = {1.0, 1.0};

    s.ipc = {0.85, 0.6};
    EXPECT_EQ(find(analyze(s), "qos.attainment")->status,
              FindingStatus::Pass);

    s.ipc = {0.5, 0.6}; // core 0 well under the floor
    const Verdict v = analyze(s);
    EXPECT_EQ(find(v, "qos.attainment")->status, FindingStatus::Fail);
    EXPECT_EQ(v.overall, FindingStatus::Fail);
}

TEST(Doctor, FairnessAttainment)
{
    RunSeries s = convergingSeries();
    s.scheme = "PriSM-F";
    s.hasPerf = true;
    s.ipcStandalone = {1.0, 1.0};

    s.ipc = {0.7, 0.65};
    EXPECT_EQ(find(analyze(s), "fairness.attainment")->status,
              FindingStatus::Pass);

    s.ipc = {0.9, 0.2}; // lopsided progress
    EXPECT_EQ(find(analyze(s), "fairness.attainment")->status,
              FindingStatus::Warn);
}

TEST(Doctor, CountersOnlyInputSkipsSeriesChecks)
{
    RunSeries s;
    s.name = "stats-only";
    s.hasCounters = true;
    s.intervals = 100;
    const Verdict v = analyze(s);
    EXPECT_EQ(find(v, "tracking.residual")->status,
              FindingStatus::Skip);
    EXPECT_EQ(find(v, "stability.osc_amplitude")->status,
              FindingStatus::Skip);
    // Skips never dominate the overall verdict.
    EXPECT_EQ(v.overall, FindingStatus::Pass);
}

TEST(Doctor, RollupCountsJobsAndKeepsWorst)
{
    RunSeries bad = convergingSeries();
    bad.fallbackEntries = 3;
    const std::vector<Verdict> jobs = {analyze(convergingSeries()),
                                       analyze(bad)};
    EXPECT_EQ(worstOf(jobs), FindingStatus::Fail);
    const Verdict sweep = rollup(jobs);
    EXPECT_EQ(sweep.overall, FindingStatus::Fail);
    EXPECT_EQ(find(sweep, "sweep.jobs_FAIL")->value, 1.0);
    EXPECT_EQ(find(sweep, "sweep.jobs_PASS")->value, 1.0);
}

TEST(Doctor, DocumentIsValidJsonWithSchema)
{
    const std::vector<Verdict> jobs = {analyze(convergingSeries())};
    std::ostringstream os;
    writeDoctorDocument(os, "run", jobs);

    JsonValue doc;
    const Status st = parseJson(os.str(), doc);
    ASSERT_TRUE(st.ok()) << st.message();
    EXPECT_EQ(doc.at("schema").asString(), "prism-doctor-v1");
    EXPECT_EQ(doc.at("source").asString(), "run");
    EXPECT_EQ(doc.at("verdict").asString(), "PASS");
    EXPECT_EQ(doc.at("summary").at("jobs").asU64(), 1u);
    EXPECT_EQ(doc.at("jobs").at(0).at("run").asString(), "synthetic");
    EXPECT_DOUBLE_EQ(
        doc.at("thresholds").at("converged_error").asDouble(), 0.10);
}

namespace
{

/** Minimal prism-bench-v1 document with one job. */
std::string
benchDoc(double ipc0, std::uint64_t intervals)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.kv("schema", "prism-bench-v1");
    w.kv("sweep", "t");
    w.key("jobs");
    w.beginArray();
    w.beginObject();
    w.kv("id", "W/PriSM-H");
    w.key("config");
    w.beginObject();
    w.kv("cores", 2u);
    w.endObject();
    w.key("result");
    w.beginObject();
    w.kv("scheme", "PriSM-H");
    w.key("ipc");
    w.beginArray();
    w.value(ipc0);
    w.value(0.5);
    w.endArray();
    w.kv("intervals", intervals);
    w.endObject();
    w.endObject();
    w.endArray();
    w.endObject();
    return os.str();
}

JsonValue
parsed(const std::string &text)
{
    JsonValue v;
    const Status st = parseJson(text, v);
    EXPECT_TRUE(st.ok()) << st.message();
    return v;
}

} // namespace

TEST(Compare, IdenticalDocumentsPass)
{
    const JsonValue a = parsed(benchDoc(1.0, 44));
    const Verdict v = compareBenchDocs(a, a);
    EXPECT_EQ(v.overall, FindingStatus::Pass);
}

TEST(Compare, DriftBeyondToleranceFails)
{
    const JsonValue a = parsed(benchDoc(1.0, 44));
    const JsonValue b = parsed(benchDoc(1.001, 44));
    EXPECT_EQ(compareBenchDocs(a, b).overall, FindingStatus::Fail);

    CompareOptions loose;
    loose.relTolerance = 0.01;
    EXPECT_EQ(compareBenchDocs(a, b, loose).overall,
              FindingStatus::Pass);

    // Per-metric override: only "ipc" may drift.
    CompareOptions per;
    per.metricTolerance["ipc"] = 0.01;
    EXPECT_EQ(compareBenchDocs(a, b, per).overall,
              FindingStatus::Pass);
    const JsonValue c = parsed(benchDoc(1.0, 45));
    EXPECT_EQ(compareBenchDocs(a, c, per).overall,
              FindingStatus::Fail);
}

TEST(Compare, WildcardToleranceMatchesBySuffix)
{
    CompareOptions opts;
    opts.relTolerance = 0.0;
    opts.metricTolerance["*_per_sec"] = 0.5;
    opts.metricTolerance["accesses_per_sec"] = 0.25;

    // Exact key wins over the wildcard; other *_per_sec metrics get
    // the wildcard value; unrelated metrics fall back to the global.
    EXPECT_DOUBLE_EQ(opts.toleranceFor("accesses_per_sec"), 0.25);
    EXPECT_DOUBLE_EQ(opts.toleranceFor("alias_draws_per_sec"), 0.5);
    EXPECT_DOUBLE_EQ(opts.toleranceFor("_per_sec"), 0.5);
    EXPECT_DOUBLE_EQ(opts.toleranceFor("ipc"), 0.0);
    // Shorter than the suffix, or only a partial match: no wildcard.
    EXPECT_DOUBLE_EQ(opts.toleranceFor("per_sec"), 0.0);
    EXPECT_DOUBLE_EQ(opts.toleranceFor("sec"), 0.0);

    // A bare "*" key is ignored (size < 2), not a match-everything.
    CompareOptions star;
    star.metricTolerance["*"] = 0.9;
    EXPECT_DOUBLE_EQ(star.toleranceFor("ipc"), 0.0);
}

TEST(Compare, WildcardToleranceAppliesToDocuments)
{
    const JsonValue a = parsed(benchDoc(1.0, 44));
    const JsonValue b = parsed(benchDoc(1.001, 44));

    CompareOptions wild;
    wild.metricTolerance["*pc"] = 0.01; // suffix of "ipc"
    EXPECT_EQ(compareBenchDocs(a, b, wild).overall,
              FindingStatus::Pass);

    CompareOptions miss;
    miss.metricTolerance["*_per_sec"] = 0.01;
    EXPECT_EQ(compareBenchDocs(a, b, miss).overall,
              FindingStatus::Fail);
}

TEST(Compare, MissingAndExtraJobsFail)
{
    const JsonValue a = parsed(benchDoc(1.0, 44));
    const JsonValue empty = parsed(
        R"({"schema": "prism-bench-v1", "sweep": "t", "jobs": []})");
    const Verdict missing = compareBenchDocs(a, empty);
    EXPECT_EQ(missing.overall, FindingStatus::Fail);
    ASSERT_NE(find(missing, "compare.missing_job"), nullptr);
    const Verdict extra = compareBenchDocs(empty, a);
    EXPECT_EQ(extra.overall, FindingStatus::Fail);
    ASSERT_NE(find(extra, "compare.extra_job"), nullptr);
}

TEST(RunSpecParse, ResolvesWorkloadSchemeAndMachine)
{
    RunSpec spec;
    const Status st = parseRunSpec(
        "--mix 403.gcc,186.crafty --scheme PriSM-Q --repl RRIP "
        "--instr 50000 --warmup 10000 --interval 512 --seed 7 "
        "--bits 6 --qos-frac 0.7 --checked",
        spec);
    ASSERT_TRUE(st.ok()) << st.message();
    EXPECT_EQ(spec.workload.benchmarks.size(), 2u);
    EXPECT_EQ(spec.scheme, SchemeKind::PrismQ);
    EXPECT_EQ(spec.machine.numCores, 2u);
    EXPECT_EQ(spec.machine.instrBudget, 50000u);
    EXPECT_EQ(spec.machine.intervalMisses, 512u);
    EXPECT_EQ(spec.machine.seed, 7u);
    EXPECT_EQ(spec.machine.repl, ReplKind::RRIP);
    EXPECT_EQ(spec.options.probBits, 6u);
    EXPECT_DOUBLE_EQ(spec.options.qosTargetFrac, 0.7);
    EXPECT_TRUE(spec.options.checked);
}

TEST(RunSpecParse, RejectsBadInput)
{
    RunSpec spec;
    EXPECT_FALSE(parseRunSpec("--scheme NoSuch", spec).ok());
    EXPECT_FALSE(parseRunSpec("--workload NoSuch", spec).ok());
    EXPECT_FALSE(parseRunSpec("--instr abc", spec).ok());
    EXPECT_FALSE(parseRunSpec("--cores 3", spec).ok());
    EXPECT_FALSE(parseRunSpec("--stats", spec).ok()); // output flag
    EXPECT_FALSE(
        parseRunSpec("--faults nosuchkind@2", spec).ok());
    // K-bit probabilities need K <= 31; 2^32 + 6 once narrowed to 6.
    EXPECT_FALSE(parseRunSpec("--bits 32", spec).ok());
    EXPECT_FALSE(parseRunSpec("--bits 4294967302", spec).ok());
    // Exec-level kinds belong to prism_bench --chaos, not a run.
    EXPECT_FALSE(parseRunSpec("--faults job_crash@3", spec).ok());
    // The PriSM-Q floor fraction must be finite and in (0, 1].
    EXPECT_FALSE(parseRunSpec("--qos-frac nan", spec).ok());
    EXPECT_FALSE(parseRunSpec("--qos-frac -1", spec).ok());
    EXPECT_FALSE(parseRunSpec("--qos-frac 1.5", spec).ok());
    // Mix names must be known profiles, and a workload fixes the
    // core count that --cores may only restate.
    EXPECT_FALSE(parseRunSpec("--mix 403.gcc,nosuch.bench", spec).ok());
    EXPECT_FALSE(parseRunSpec("--workload Q7 --cores 8", spec).ok());
    ASSERT_TRUE(parseRunSpec("--workload Q7 --cores 4", spec).ok());
    EXPECT_EQ(spec.machine.numCores, 4u);
    // Default spec is the 4-core paper machine under PriSM-H.
    ASSERT_TRUE(parseRunSpec("", spec).ok());
    EXPECT_EQ(spec.scheme, SchemeKind::PrismH);
    EXPECT_EQ(spec.machine.numCores, 4u);
}

TEST(TraceRead, FixtureParsesAndStrayCoreKeysAreInputErrors)
{
    std::ifstream in(PRISM_TRACE_GOLDEN_DEFAULT);
    ASSERT_TRUE(in.is_open()) << PRISM_TRACE_GOLDEN_DEFAULT;
    std::ostringstream text;
    text << in.rdbuf();
    const std::string golden = text.str();

    JsonValue doc;
    ASSERT_TRUE(parseJson(golden, doc).ok());
    std::vector<RunSeries> runs;
    const Status st = seriesFromTraceJson(doc, runs);
    ASSERT_TRUE(st.ok()) << st.message();
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_EQ(runs[0].name, "GF/PriSM-H");
    EXPECT_EQ(runs[0].cores, 2u);
    EXPECT_FALSE(runs[0].occupancy.empty());

    // The writer emits dense keys c0..c{n-1}. Renaming the first
    // occupancy row's c1 leaves an index the event cannot hold: one
    // past the end, and one too large for 64 bits.
    for (const std::string key : {"c2", "c1000000000000000000000000"}) {
        std::string bad = golden;
        bad.replace(bad.find("\"c1\""), 4, "\"" + key + "\"");
        ASSERT_TRUE(parseJson(bad, doc).ok());
        const Status bad_st = seriesFromTraceJson(doc, runs);
        EXPECT_FALSE(bad_st.ok()) << key;
        EXPECT_NE(bad_st.message().find(key), std::string::npos)
            << bad_st.message();
    }
}
