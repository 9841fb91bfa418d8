/**
 * @file
 * Telemetry subsystem tests: ring-buffer wrap/drop semantics,
 * histogram bucket edges, concurrent MetricsRegistry access (the
 * ThreadSanitizer target when built with -DPRISM_TSAN=ON), registry
 * JSON determinism, recorder wiring through Runner, fault events,
 * the trace byte-identity contract across sweep thread counts, and
 * the committed golden Chrome trace.
 *
 * Regenerate the golden trace after an intentional format change:
 *   PRISM_UPDATE_GOLDEN=1 build/tests/test_telemetry \
 *       --gtest_filter=TraceGolden.*
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "exec/sweep.hh"
#include "telemetry/interval_recorder.hh"
#include "telemetry/metrics_registry.hh"
#include "telemetry/span.hh"
#include "telemetry/trace_writer.hh"

using namespace prism;
using namespace prism::telemetry;

namespace
{

IntervalSample
sampleAt(std::uint64_t interval)
{
    IntervalSample s;
    s.interval = interval;
    s.missesInInterval = 10 * interval;
    s.occupancy = {0.25, 0.75};
    s.missFrac = {0.5, 0.5};
    s.ipc = {1.0, 2.0};
    s.hits = {interval, interval + 1};
    s.misses = {5, 5};
    return s;
}

} // namespace

// --- IntervalRecorder --------------------------------------------

TEST(IntervalRecorder, StoresSamplesInOrderBelowCapacity)
{
    IntervalRecorder rec(8);
    for (std::uint64_t i = 1; i <= 5; ++i)
        rec.record(sampleAt(i));
    EXPECT_EQ(rec.size(), 5u);
    EXPECT_EQ(rec.recorded(), 5u);
    EXPECT_EQ(rec.droppedSamples(), 0u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(rec.sample(i).interval, i + 1);
}

TEST(IntervalRecorder, WrapsDroppingOldest)
{
    IntervalRecorder rec(4);
    for (std::uint64_t i = 1; i <= 10; ++i)
        rec.record(sampleAt(i));
    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec.recorded(), 10u);
    EXPECT_EQ(rec.droppedSamples(), 6u);
    // Oldest retained is interval 7; sample(0) is the oldest.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(rec.sample(i).interval, 7 + i);
}

TEST(IntervalRecorder, CapacityOneKeepsNewest)
{
    IntervalRecorder rec(1);
    for (std::uint64_t i = 1; i <= 3; ++i)
        rec.record(sampleAt(i));
    ASSERT_EQ(rec.size(), 1u);
    EXPECT_EQ(rec.sample(0).interval, 3u);
    EXPECT_EQ(rec.droppedSamples(), 2u);
}

TEST(IntervalRecorder, EventRingWrapsIndependently)
{
    IntervalRecorder rec(3);
    for (std::uint64_t i = 1; i <= 5; ++i)
        rec.addEvent({EventKind::DegradedInterval, i, invalidCore,
                      static_cast<double>(i)});
    EXPECT_EQ(rec.eventCount(), 3u);
    EXPECT_EQ(rec.eventsSeen(), 5u);
    EXPECT_EQ(rec.droppedEvents(), 2u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(rec.event(i).interval, 3 + i);
    // The sample ring is untouched by event traffic.
    EXPECT_EQ(rec.size(), 0u);
}

TEST(IntervalRecorder, FinishOccupancyReadsCoreFinishEvents)
{
    IntervalRecorder rec(8);
    rec.addEvent({EventKind::CoreFinish, 4, 1, 0.625});
    rec.addEvent({EventKind::CoreFinish, 9, 0, 0.25});
    EXPECT_EQ(finishOccupancy(rec, 0), 0.25);
    EXPECT_EQ(finishOccupancy(rec, 1), 0.625);
    EXPECT_EQ(finishOccupancy(rec, 2), 0.0); // never finished
}

TEST(IntervalRecorder, EvProbStatReplaysWelfordSequence)
{
    IntervalRecorder rec(8);
    RunningStat direct;
    const std::vector<double> series{0.1, 0.4, 0.25, 0.25, 0.9};
    for (std::size_t i = 0; i < series.size(); ++i) {
        IntervalSample s = sampleAt(i + 1);
        s.evProb = {series[i], 1.0 - series[i]};
        rec.record(std::move(s));
        direct.add(series[i]);
    }
    const RunningStat replayed = evProbStat(rec, 0);
    EXPECT_EQ(replayed.count(), direct.count());
    EXPECT_EQ(replayed.mean(), direct.mean());
    EXPECT_EQ(replayed.stddev(), direct.stddev());
}

TEST(IntervalRecorder, EventKindNamesAreStable)
{
    // Trace files depend on these strings: renaming breaks goldens.
    EXPECT_STREQ(eventKindName(EventKind::CoreFinish), "core_finish");
    EXPECT_STREQ(eventKindName(EventKind::DegradedInterval),
                 "degraded_interval");
    EXPECT_STREQ(eventKindName(EventKind::DroppedRecompute),
                 "dropped_recompute");
    EXPECT_STREQ(eventKindName(EventKind::DistributionRepair),
                 "distribution_repair");
    EXPECT_STREQ(eventKindName(EventKind::FallbackEntered),
                 "fallback_entered");
    EXPECT_STREQ(eventKindName(EventKind::OwnershipRepair),
                 "ownership_repair");
}

TEST(IntervalRecorder, DropCountersStayExactAcrossWrapUnderWriters)
{
    // The recorder is single-writer by contract; callers that share
    // one serialise externally. Under that discipline the drop
    // counters must stay exact arithmetic over the ring: recorded ==
    // size + droppedSamples, and likewise for events, no matter how
    // the writers interleave.
    IntervalRecorder rec(16);
    std::mutex writer_mutex;
    constexpr int kWriters = 4;
    constexpr std::uint64_t kPerWriter = 500;

    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w)
        writers.emplace_back([&, w] {
            for (std::uint64_t i = 0; i < kPerWriter; ++i) {
                const std::uint64_t interval =
                    static_cast<std::uint64_t>(w) * kPerWriter + i;
                std::lock_guard<std::mutex> lock(writer_mutex);
                rec.record(sampleAt(interval));
                if (i % 3 == 0)
                    rec.addEvent({EventKind::DegradedInterval,
                                  interval, invalidCore, 0.0});
            }
        });
    for (std::thread &t : writers)
        t.join();

    const std::uint64_t total = kWriters * kPerWriter;
    EXPECT_EQ(rec.recorded(), total);
    EXPECT_EQ(rec.size(), 16u);
    EXPECT_EQ(rec.droppedSamples(), total - 16u);

    const std::uint64_t events = kWriters * ((kPerWriter + 2) / 3);
    EXPECT_EQ(rec.eventsSeen(), events);
    EXPECT_EQ(rec.droppedEvents(), events - rec.eventCount());
}

// --- Histogram ----------------------------------------------------

TEST(Histogram, BucketEdgesAreUpperInclusive)
{
    const std::vector<double> bounds{1.0, 2.0, 4.0};
    Histogram h(bounds);
    ASSERT_EQ(h.numBuckets(), 4u); // 3 bounded + overflow

    h.observe(0.5); // bucket 0
    h.observe(1.0); // bucket 0: v <= bound is inclusive
    h.observe(1.5); // bucket 1
    h.observe(2.0); // bucket 1
    h.observe(4.0); // bucket 2
    h.observe(4.1); // overflow
    h.observe(99.0); // overflow

    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 2u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(3), 2u);
    EXPECT_EQ(h.count(), 7u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 4.1 + 99.0);
}

// --- MetricsRegistry ----------------------------------------------

TEST(MetricsRegistry, SameNameReturnsSameMetric)
{
    MetricsRegistry m;
    Counter &a = m.counter("x");
    Counter &b = m.counter("x");
    EXPECT_EQ(&a, &b);
    a.add(3);
    EXPECT_EQ(b.value(), 3u);

    const std::vector<double> bounds{1.0, 2.0};
    Histogram &h1 = m.histogram("h", bounds);
    const std::vector<double> other{9.0};
    Histogram &h2 = m.histogram("h", other); // first bounds win
    EXPECT_EQ(&h1, &h2);
    EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST(MetricsRegistry, SpanAggregatesCallsAndWallTime)
{
    MetricsRegistry m;
    const SpanStats stats = m.span("work");
    ASSERT_TRUE(stats);
    for (int i = 0; i < 4; ++i) {
        PRISM_SPAN(stats);
    }
    EXPECT_EQ(m.counter("work.calls").value(), 4u);
    // Wall time is non-deterministic but monotonic in call count —
    // only its presence is asserted.
    EXPECT_TRUE(MetricsRegistry::isWallClock("work.wall_ns"));
    EXPECT_FALSE(MetricsRegistry::isWallClock("work.calls"));
}

TEST(MetricsRegistry, DisabledSpanIsInert)
{
    const SpanStats disabled;
    EXPECT_FALSE(disabled);
    {
        PRISM_SPAN(disabled); // must not dereference null counters
    }
}

TEST(MetricsRegistry, ConcurrentAccessIsSafe)
{
    // 8 threads hammer the same registry: lazy registration races,
    // counter increments, gauge stores, histogram observes and span
    // timers all at once. Under -DPRISM_TSAN=ON this test is the
    // data-race gate for the telemetry subsystem.
    MetricsRegistry m;
    constexpr int kThreads = 8;
    constexpr int kIters = 10'000;
    const std::vector<double> bounds{10.0, 100.0, 1000.0};

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&m, &bounds, t]() {
            const SpanStats span =
                m.span("shared.span"); // same name on purpose
            for (int i = 0; i < kIters; ++i) {
                PRISM_SPAN(span);
                m.counter("shared.counter").add();
                m.counter("t" + std::to_string(t % 2) + ".counter")
                    .add(2);
                m.gauge("shared.gauge").set(i);
                m.histogram("shared.hist", bounds)
                    .observe(static_cast<double>(i));
            }
        });
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(m.counter("shared.counter").value(),
              static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_EQ(m.counter("t0.counter").value(),
              static_cast<std::uint64_t>(kThreads) / 2 * kIters * 2);
    EXPECT_EQ(m.counter("shared.span.calls").value(),
              static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_EQ(m.histogram("shared.hist", bounds).count(),
              static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(MetricsRegistry, JsonIsSortedAndExcludesWallClock)
{
    MetricsRegistry m;
    m.counter("zeta").add(1);
    m.counter("alpha").add(2);
    m.span("llc.access"); // registers llc.access.{calls,wall_ns}
    m.gauge("g").set(1.5);
    const std::vector<double> bounds{1.0};
    m.histogram("h", bounds).observe(0.5);

    std::ostringstream os;
    JsonWriter w(os);
    m.writeJson(w);
    const std::string json = os.str();

    EXPECT_NE(json.find("\"alpha\""), std::string::npos);
    EXPECT_LT(json.find("\"alpha\""), json.find("\"zeta\""));
    EXPECT_NE(json.find("\"llc.access.calls\""), std::string::npos);
    EXPECT_EQ(json.find("wall_ns"), std::string::npos)
        << "wall-clock counters leaked into deterministic JSON";

    std::ostringstream os2;
    JsonWriter w2(os2);
    m.writeJson(w2, /*include_wall=*/true);
    EXPECT_NE(os2.str().find("llc.access.wall_ns"), std::string::npos);
}

// --- Runner integration -------------------------------------------

namespace
{

MachineConfig
tinyMachine()
{
    MachineConfig m;
    m.numCores = 2;
    m.llcBytes = 256ull << 10;
    m.llcWays = 8;
    m.intervalMisses = 1024;
    m.instrBudget = 60'000;
    m.warmupInstr = 15'000;
    return m;
}

const Workload kMixGF{"GF", {"403.gcc", "186.crafty"}};
const Workload kMixSS{"SS", {"179.art", "470.lbm"}};

} // namespace

TEST(RunnerTelemetry, RecordsEveryIntervalAndFinishEvents)
{
    Runner runner(tinyMachine());
    SchemeOptions opt;
    opt.telemetry.enabled = true;
    opt.telemetry.capacity = 4096;
    const RunResult r = runner.run(kMixGF, SchemeKind::PrismH, opt);

    ASSERT_NE(r.recorder, nullptr);
    const IntervalRecorder &rec = *r.recorder;
    EXPECT_EQ(rec.recorded(), r.intervals);
    EXPECT_EQ(rec.droppedSamples(), 0u);
    ASSERT_GT(rec.size(), 0u);

    for (std::size_t i = 0; i < rec.size(); ++i) {
        const IntervalSample &s = rec.sample(i);
        EXPECT_EQ(s.interval, i + 1);
        ASSERT_EQ(s.occupancy.size(), 2u);
        ASSERT_EQ(s.evProb.size(), 2u) << "PriSM series missing";
        ASSERT_EQ(s.target.size(), 2u);
        double ev_sum = 0.0;
        for (const double e : s.evProb)
            ev_sum += e;
        EXPECT_NEAR(ev_sum, 1.0, 1e-9);
    }

    // The figure-4 statistic reconstructed from events matches the
    // runner's own field bit for bit.
    for (std::size_t c = 0; c < 2; ++c)
        EXPECT_EQ(finishOccupancy(rec, static_cast<CoreId>(c)),
                  r.occupancyAtFinish[c]);

    // The figure-11 statistic matches the scheme's Welford stats.
    for (std::size_t c = 0; c < 2; ++c) {
        const RunningStat st = evProbStat(rec, static_cast<CoreId>(c));
        EXPECT_EQ(st.mean(), r.evProbMean[c]);
        EXPECT_EQ(st.stddev(), r.evProbStddev[c]);
    }
}

TEST(RunnerTelemetry, ObservationDoesNotPerturbResults)
{
    Runner a(tinyMachine());
    const RunResult plain = a.run(kMixGF, SchemeKind::PrismH);

    Runner b(tinyMachine());
    SchemeOptions opt;
    opt.telemetry.enabled = true;
    MetricsRegistry metrics;
    opt.telemetry.metrics = &metrics;
    const RunResult recorded = b.run(kMixGF, SchemeKind::PrismH, opt);

    EXPECT_EQ(plain.ipc, recorded.ipc);
    EXPECT_EQ(plain.llcMisses, recorded.llcMisses);
    EXPECT_EQ(plain.occupancyAtFinish, recorded.occupancyAtFinish);
    EXPECT_EQ(plain.evProbMean, recorded.evProbMean);
    EXPECT_EQ(plain.intervals, recorded.intervals);

    // The span counts every SharedCache::access including warmup;
    // RunResult hits/misses cover the measured phase only.
    std::uint64_t measured = 0;
    for (std::size_t c = 0; c < 2; ++c)
        measured += recorded.llcHits[c] + recorded.llcMisses[c];
    EXPECT_GE(metrics.counter("llc.access.calls").value(), measured)
        << "llc.access span missed measured-phase accesses";
    EXPECT_GT(metrics.counter("prism.recompute.calls").value(), 0u);
}

TEST(RunnerTelemetry, BaselineSchemeHasNoPrismSeries)
{
    Runner runner(tinyMachine());
    SchemeOptions opt;
    opt.telemetry.enabled = true;
    const RunResult r = runner.run(kMixGF, SchemeKind::Baseline, opt);
    ASSERT_NE(r.recorder, nullptr);
    ASSERT_GT(r.recorder->size(), 0u);
    EXPECT_TRUE(r.recorder->sample(0).evProb.empty());
    EXPECT_TRUE(r.recorder->sample(0).target.empty());
}

TEST(RunnerTelemetry, DisabledTelemetryLeavesRecorderNull)
{
    Runner runner(tinyMachine());
    const RunResult r = runner.run(kMixGF, SchemeKind::PrismH);
    EXPECT_EQ(r.recorder, nullptr);
}

TEST(RunnerTelemetry, FaultEventsAppearInRecorder)
{
    Runner runner(tinyMachine());
    SchemeOptions opt;
    opt.telemetry.enabled = true;
    opt.checked = true;
    opt.faultSpec = "drop@3,nan@2";
    const RunResult r = runner.run(kMixGF, SchemeKind::PrismH, opt);

    ASSERT_NE(r.recorder, nullptr);
    std::uint64_t dropped = 0, degraded = 0;
    for (std::size_t i = 0; i < r.recorder->eventCount(); ++i) {
        const TelemetryEvent &e = r.recorder->event(i);
        if (e.kind == EventKind::DroppedRecompute)
            ++dropped;
        if (e.kind == EventKind::DegradedInterval)
            ++degraded;
    }
    EXPECT_EQ(dropped, r.droppedRecomputes);
    EXPECT_EQ(degraded, r.degradedIntervals);
    EXPECT_GT(dropped + degraded, 0u)
        << "fault spec injected nothing: raise the rates";
}

// --- Trace determinism across sweep thread counts -----------------

namespace
{

/** A small recorded sweep mixing PriSM and baseline jobs. */
SweepSpec
tracedSpec()
{
    SweepSpec spec;
    spec.name = "telemetry";
    SchemeOptions opt;
    opt.telemetry.enabled = true;
    opt.telemetry.capacity = 64; // force wrap on at least no job
    spec.add(tinyMachine(), kMixGF, SchemeKind::PrismH, opt);
    spec.add(tinyMachine(), kMixGF, SchemeKind::Baseline, opt);
    spec.add(tinyMachine(), kMixSS, SchemeKind::PrismH, opt);
    return spec;
}

std::string
traceOf(const SweepSpec &spec, unsigned threads)
{
    MetricsRegistry metrics;
    SweepRunner runner(threads);
    runner.setMetrics(&metrics);
    const SweepOutcome outcome = runner.run(spec);

    std::vector<TraceJob> jobs;
    for (std::size_t i = 0; i < spec.jobs.size(); ++i)
        jobs.push_back(
            {spec.jobs[i].id, outcome.results[i].recorder.get()});
    std::ostringstream os;
    TraceWriter().writeChromeTrace(os, jobs, &metrics);
    return os.str();
}

} // namespace

TEST(TraceDeterminism, ByteIdenticalAcrossThreadCounts)
{
    const SweepSpec spec = tracedSpec();
    const std::string base = traceOf(spec, 1);
    EXPECT_NE(base.find("prism-trace-v1"), std::string::npos);
    for (const unsigned threads : {2u, 8u})
        EXPECT_EQ(traceOf(spec, threads), base)
            << "trace differs at " << threads << " threads";
}

TEST(TraceDeterminism, CsvIsByteIdenticalToo)
{
    const SweepSpec spec = tracedSpec();
    const auto csvOf = [&spec](unsigned threads) {
        SweepRunner runner(threads);
        const SweepOutcome outcome = runner.run(spec);
        std::vector<TraceJob> jobs;
        for (std::size_t i = 0; i < spec.jobs.size(); ++i)
            jobs.push_back(
                {spec.jobs[i].id, outcome.results[i].recorder.get()});
        std::ostringstream os;
        TraceWriter().writeCsv(os, jobs);
        return os.str();
    };
    const std::string base = csvOf(1);
    EXPECT_NE(base.find("job,interval,core,occupancy"),
              std::string::npos);
    EXPECT_EQ(csvOf(8), base);
}

// --- Golden Chrome trace ------------------------------------------

#ifndef PRISM_TRACE_GOLDEN_DEFAULT
#define PRISM_TRACE_GOLDEN_DEFAULT "tests/golden/TRACE_fixture.json"
#endif

TEST(TraceGolden, MatchesCommittedFixture)
{
    const char *path_env = std::getenv("PRISM_TRACE_GOLDEN");
    const std::string path =
        path_env ? path_env : PRISM_TRACE_GOLDEN_DEFAULT;

    const std::string trace = traceOf(tracedSpec(), 2);

    if (std::getenv("PRISM_UPDATE_GOLDEN")) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << trace;
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden trace " << path
                    << " (regenerate with PRISM_UPDATE_GOLDEN=1)";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(trace, golden.str())
        << "trace format drifted; if intentional regenerate with "
           "PRISM_UPDATE_GOLDEN=1";
}

// --- CSV field escaping -------------------------------------------

TEST(TraceCsv, EscapesJobNamesWithCommasAndQuotes)
{
    // Sweep job keys are free-form (workload mixes contain commas;
    // chaos specs could carry quotes). The CSV stays RFC-4180: such
    // fields are quoted with embedded quotes doubled, while plain
    // names render unquoted exactly as before.
    IntervalRecorder rec(4);
    rec.record(sampleAt(1));
    const std::vector<TraceJob> jobs{
        {"mix=403.gcc,186.crafty \"W8\"", &rec},
        {"plain", &rec},
    };

    std::ostringstream os;
    TraceWriter().writeCsv(os, jobs);
    const std::string csv = os.str();

    EXPECT_NE(csv.find("\"mix=403.gcc,186.crafty \"\"W8\"\"\",1,0,"),
              std::string::npos)
        << csv;
    EXPECT_NE(csv.find("\nplain,1,0,"), std::string::npos) << csv;
    // Every data row still has the header's column count.
    std::istringstream lines(csv);
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    const auto columns = [](const std::string &row) {
        std::size_t n = 1;
        bool quoted = false;
        for (const char c : row) {
            if (c == '"')
                quoted = !quoted;
            else if (c == ',' && !quoted)
                ++n;
        }
        return n;
    };
    const std::size_t header_cols = columns(line);
    while (std::getline(lines, line))
        EXPECT_EQ(columns(line), header_cols) << line;
}
