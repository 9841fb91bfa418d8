/**
 * @file
 * Live observability plane, in-process: ServeLiveObserver snapshots
 * must be byte-identical at 1, 2 and 8 engine threads; the verdict
 * embedded in every snapshot, at every round end and at the run's
 * end, must match what offline analyze() computes from that
 * snapshot's own text (the acceptance criterion of
 * docs/OBSERVABILITY.md, "Live metrics & online doctor"); only the
 * final snapshot carries the whole run's
 * rows as "history"; the committed METRICS_fixture.json and
 * METRICS_fixture.prom goldens pin the prism-metrics-v1 format and
 * its Prometheus text; and a raised stop flag ends the run at the
 * next round boundary with the final snapshot still written.
 *
 * Regenerate the goldens after an intentional format change:
 *   PRISM_UPDATE_GOLDEN=1 build/tests/test_live \
 *       --gtest_filter=MetricsGolden.*
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/doctor.hh"
#include "analysis/online_doctor.hh"
#include "analysis/series.hh"
#include "common/json.hh"
#include "serve/serve_engine.hh"

using namespace prism;
using namespace prism::analysis;
using namespace prism::serve;

namespace
{

/** The eviction-heavy serve fixture (test_serve_determinism), with
 *  the op budget rounded to whole rounds: 48 rounds, 11 intervals. */
ServeConfig
fixtureConfig()
{
    ServeConfig config;
    TenantSpec spec;
    spec.keys = 40000;
    config.tenants.assign(3, spec);
    config.tenants[2].zipf = 0.8;
    config.capacityBytes = 4ull << 20;
    config.shards = 16;
    config.streams = 8;
    config.batch = 1024;
    config.intervalMisses = 8192;
    config.opBudget = 393216;
    config.timing = false;
    config.seed = 2012;
    return config;
}

LiveObserverOptions
liveOptions()
{
    LiveObserverOptions live;
    live.windowCapacity = 64;
    live.onlineDoctor = true;
    return live;
}

struct LiveRun
{
    ServeResult result;
    std::string snapshotJson;
    std::string snapshotProm;
    std::string verdictJson;
};

std::string
renderSnapshot(const ServeLiveObserver &observer)
{
    std::ostringstream os;
    observer.writeJson(os);
    os << "\n"; // the observer's file writes end in a newline
    return os.str();
}

std::string
renderProm(const ServeLiveObserver &observer)
{
    std::ostringstream os;
    observer.writePrometheus(os);
    return os.str();
}

std::string
renderVerdict(const Verdict &v)
{
    std::ostringstream os;
    JsonWriter w(os);
    writeVerdictJson(w, v);
    return os.str();
}

LiveRun
runLive(ServeConfig config, std::uint32_t threads,
        LiveObserverOptions live = liveOptions())
{
    config.threads = threads;
    ServeLiveObserver observer(config, live);
    config.observer = &observer;
    ServeEngine engine(config);
    LiveRun out;
    out.result = engine.run();
    out.snapshotJson = renderSnapshot(observer);
    out.snapshotProm = renderProm(observer);
    out.verdictJson = renderVerdict(observer.grade());
    return out;
}

/**
 * Forwards every hook to a ServeLiveObserver and renders a periodic
 * snapshot at the end of the round in which interval @p at closed,
 * so the snapshot's embedded verdict grades that round's state.
 */
class PeriodicTap final : public ServeObserver
{
  public:
    PeriodicTap(ServeLiveObserver &inner, std::uint64_t at)
        : inner_(inner), at_(at)
    {
    }

    void
    onIntervalClosed(const telemetry::IntervalSample &sample,
                     std::span<const std::uint64_t> evictions,
                     const ServeLiveState &state) override
    {
        inner_.onIntervalClosed(sample, evictions, state);
        if (state.intervals == at_)
            round_ = state.rounds;
    }

    void
    onRoundEnd(const ServeLiveState &state) override
    {
        inner_.onRoundEnd(state);
        if (state.rounds != round_)
            return;
        json = renderSnapshot(inner_);
        verdictJson = renderVerdict(inner_.grade());
    }

    void
    onRunEnd(const ServeLiveState &state) override
    {
        inner_.onRunEnd(state);
    }

    std::string json;
    std::string verdictJson;

  private:
    ServeLiveObserver &inner_;
    std::uint64_t at_;
    std::uint64_t round_ = 0;
};

/** A fixture run whose window (4) is shorter than its 11 intervals:
 *  the periodic snapshot after interval 6, then the final one, each
 *  with the online verdict it embeds. */
struct TappedRun
{
    ServeResult result;
    std::string periodicJson;
    std::string periodicVerdictJson;
    std::string finalJson;
    std::string finalVerdictJson;
};

TappedRun
runTapped(LiveObserverOptions live)
{
    live.windowCapacity = 4;
    ServeConfig config = fixtureConfig();
    config.threads = 2;
    ServeLiveObserver observer(config, live);
    PeriodicTap tap(observer, 6);
    config.observer = &tap;
    TappedRun out;
    out.result = ServeEngine(config).run();
    out.periodicJson = tap.json;
    out.periodicVerdictJson = tap.verdictJson;
    out.finalJson = renderSnapshot(observer);
    out.finalVerdictJson = renderVerdict(observer.grade());
    return out;
}

/**
 * Re-grade a snapshot exactly the way `prism_doctor FILE` does:
 * parse, lift a RunSeries out of prism-metrics-v1, run analyze().
 */
std::string
offlineVerdict(const std::string &snapshotJson)
{
    JsonValue doc;
    RunSeries series;
    EXPECT_TRUE(parseJson(snapshotJson, doc).ok());
    EXPECT_TRUE(seriesFromMetricsJson(doc, series).ok());
    return renderVerdict(analyze(series));
}

/** A verdict as one line per finding: check, status, value,
 *  threshold ("-" without a value) and detail. */
std::string
flatVerdict(const Verdict &v)
{
    std::string out = std::string(findingStatusName(v.overall)) + "\n";
    for (const Finding &f : v.findings) {
        const auto number = [&f](double x) {
            return f.hasValue ? JsonWriter::formatDouble(x)
                              : std::string("-");
        };
        out += f.check + " " + findingStatusName(f.status) + " " +
               number(f.value) + " " + number(f.threshold) + " " +
               f.detail + "\n";
    }
    return out;
}

/** The "doctor" section of a parsed snapshot in flatVerdict's form;
 *  "(none)" when the snapshot embeds no verdict. */
std::string
embeddedVerdict(const JsonValue &doc)
{
    const JsonValue &doctor = doc.at("doctor");
    if (!doctor.isObject())
        return "(none)";
    const auto number = [](const JsonValue *v) {
        if (!v)
            return std::string("-");
        return v->isNull() ? std::string("null") : v->rawNumber();
    };
    std::string out = doctor.at("overall").asString() + "\n";
    for (const JsonValue &f : doctor.at("findings").elements())
        out += f.at("check").asString() + " " +
               f.at("status").asString() + " " +
               number(f.find("value")) + " " +
               number(f.find("threshold")) + " " +
               f.at("detail").asString() + "\n";
    return out;
}

/**
 * Forwards every hook to a ServeLiveObserver and, at every round end,
 * renders its snapshot and compares the embedded verdict with
 * offline analyze() on that same text, as `prism_doctor FILE` runs
 * it. Rounds whose verdicts differ are collected.
 */
class EveryRoundTap final : public ServeObserver
{
  public:
    explicit EveryRoundTap(ServeLiveObserver &inner) : inner_(inner) {}

    void
    onIntervalClosed(const telemetry::IntervalSample &sample,
                     std::span<const std::uint64_t> evictions,
                     const ServeLiveState &state) override
    {
        inner_.onIntervalClosed(sample, evictions, state);
    }

    void
    onRoundEnd(const ServeLiveState &state) override
    {
        inner_.onRoundEnd(state);
        ++rounds;
        JsonValue doc;
        RunSeries series;
        if (!parseJson(renderSnapshot(inner_), doc).ok() ||
            !seriesFromMetricsJson(doc, series).ok()) {
            mismatched.push_back(state.rounds);
            return;
        }
        if (embeddedVerdict(doc) != flatVerdict(analyze(series)))
            mismatched.push_back(state.rounds);
    }

    void
    onRunEnd(const ServeLiveState &state) override
    {
        inner_.onRunEnd(state);
    }

    std::uint64_t rounds = 0;
    std::vector<std::uint64_t> mismatched;

  private:
    ServeLiveObserver &inner_;
};

} // namespace

TEST(LivePlane, SnapshotIsByteIdenticalAcrossThreadCounts)
{
    const ServeConfig config = fixtureConfig();
    const LiveRun t1 = runLive(config, 1);
    const LiveRun t2 = runLive(config, 2);
    const LiveRun t8 = runLive(config, 8);

    EXPECT_GT(t1.snapshotJson.size(), 0u);
    EXPECT_EQ(t1.snapshotJson, t2.snapshotJson);
    EXPECT_EQ(t1.snapshotJson, t8.snapshotJson);
    EXPECT_EQ(t1.snapshotProm, t8.snapshotProm);
}

TEST(LivePlane, OnlineVerdictIsByteIdenticalAcrossThreadCounts)
{
    const ServeConfig config = fixtureConfig();
    const LiveRun t1 = runLive(config, 1);
    const LiveRun t8 = runLive(config, 8);

    ASSERT_GT(t1.result.intervals, 0u)
        << "fixture must close intervals for the doctor to grade";
    EXPECT_EQ(t1.verdictJson, t8.verdictJson);
}

TEST(LivePlane, SnapshotCarriesTheSectionsTheFixtureExercises)
{
    const LiveRun live = runLive(fixtureConfig(), 2);

    JsonValue doc;
    ASSERT_TRUE(parseJson(live.snapshotJson, doc).ok());
    EXPECT_EQ(doc.at("schema").asString(), "prism-metrics-v1");
    EXPECT_EQ(doc.at("source").asString(), "serve");
    EXPECT_EQ(doc.at("run").asString(), "serve/PriSM-H");
    EXPECT_EQ(doc.at("round").asU64(), live.result.rounds);
    EXPECT_EQ(doc.at("ops").asU64(), live.result.ops);
    EXPECT_EQ(doc.at("intervals").asU64(), live.result.intervals);
    EXPECT_EQ(doc.at("totals").at("evictions").asU64(),
              live.result.evictions);
    ASSERT_EQ(doc.at("tenants").size(), 3u);
    EXPECT_TRUE(doc.at("tenants")
                    .at(std::size_t{0})
                    .at("window")
                    .isObject());
    EXPECT_EQ(doc.at("totals").at("rehashes").asU64(),
              live.result.rehashes);
    EXPECT_EQ(doc.at("window").at("size").asU64(),
              live.result.intervals)
        << "the fixture closes fewer intervals than the window "
           "capacity, so all of them stay retained";
    EXPECT_EQ(doc.at("history").at("size").asU64(),
              live.result.intervals);
    EXPECT_FALSE(doc.at("doctor").at("overall").asString().empty());
}

TEST(LivePlane, OnlyTheFinalSnapshotCarriesTheWholeRun)
{
    const TappedRun run = runTapped(liveOptions());
    ASSERT_EQ(run.result.intervals, 11u);

    JsonValue periodic;
    ASSERT_FALSE(run.periodicJson.empty());
    ASSERT_TRUE(parseJson(run.periodicJson, periodic).ok());
    EXPECT_EQ(periodic.at("intervals").asU64(), 6u);
    EXPECT_EQ(periodic.at("window").at("size").asU64(), 4u);
    EXPECT_TRUE(periodic.at("history").isNull())
        << "periodic snapshots stay window-sized";

    JsonValue final_doc;
    ASSERT_TRUE(parseJson(run.finalJson, final_doc).ok());
    EXPECT_EQ(final_doc.at("window").at("size").asU64(), 4u);
    const JsonValue &history = final_doc.at("history");
    EXPECT_EQ(history.at("capacity").asU64(), 4096u)
        << "the history keeps ServeConfig::recorderCapacity rows";
    EXPECT_EQ(history.at("size").asU64(), 11u);
    EXPECT_EQ(history.at("pushed").asU64(), 11u);
    ASSERT_EQ(history.at("interval").size(), 11u);
    EXPECT_EQ(history.at("interval").at(std::size_t{0}).asU64(), 1u);
    EXPECT_EQ(history.at("evictions").size(), 11u);

    // The doctor grades the history: the invariant check spans
    // every interval, not the four the window kept.
    RunSeries series;
    ASSERT_TRUE(seriesFromMetricsJson(final_doc, series).ok());
    EXPECT_EQ(series.interval.size(), 11u);
    bool found = false;
    for (const JsonValue &f :
         final_doc.at("doctor").at("findings").elements())
        if (f.at("check").asString() == "invariants.sum_e") {
            found = true;
            EXPECT_NE(f.at("detail").asString().find(
                          "across 11 intervals"),
                      std::string::npos)
                << f.at("detail").asString();
        }
    EXPECT_TRUE(found);
}

TEST(LivePlane, IntervalsBeyondTheHistoryCountAsDroppedSamples)
{
    // The history keeps the last recorderCapacity intervals (at
    // least one); the final snapshot counts the older ones as
    // dropped samples. The serve run records no events.
    for (const auto &[capacity, kept] :
         {std::pair<std::size_t, std::uint64_t>{4, 4}, {0, 1}}) {
        ServeConfig config = fixtureConfig();
        config.recorderCapacity = capacity;
        const LiveRun run = runLive(config, 1);
        ASSERT_EQ(run.result.intervals, 11u);
        EXPECT_EQ(run.result.droppedSamples, 11u - kept) << capacity;
        EXPECT_EQ(run.result.droppedEvents, 0u) << capacity;

        JsonValue doc;
        ASSERT_TRUE(parseJson(run.snapshotJson, doc).ok());
        EXPECT_EQ(doc.at("history").at("size").asU64(), kept);
        EXPECT_EQ(doc.at("telemetry").at("dropped_samples").asU64(),
                  11u - kept)
            << capacity;
    }
}

TEST(LivePlane, OnlineVerdictMatchesOfflineAnalyzeOnTheSnapshot)
{
    const ServeConfig config = fixtureConfig();
    LiveObserverOptions live = liveOptions();
    const LiveRun run = runLive(config, 2, live);

    ASSERT_FALSE(run.verdictJson.empty());
    EXPECT_EQ(run.verdictJson,
              offlineVerdict(run.snapshotJson))
        << "the embedded online verdict must equal the offline "
           "re-analysis of the same snapshot";

    // The same parity when the window is shorter than the run: a
    // periodic snapshot is graded over its window, the final one
    // over the run's history.
    const TappedRun tapped = runTapped(live);
    ASSERT_FALSE(tapped.periodicVerdictJson.empty());
    EXPECT_EQ(tapped.periodicVerdictJson,
              offlineVerdict(tapped.periodicJson));
    EXPECT_EQ(tapped.finalVerdictJson, offlineVerdict(tapped.finalJson));
}

TEST(LivePlane, EveryRoundEndSnapshotEmbedsTheVerdictOnItsOwnText)
{
    // Most rounds close no interval, and the first ones precede the
    // first close: each snapshot still embeds the verdict that
    // prism_doctor gives on its own text.
    ServeConfig config = fixtureConfig();
    config.threads = 2;
    ServeLiveObserver observer(config, liveOptions());
    EveryRoundTap tap(observer);
    config.observer = &tap;
    const ServeResult result = ServeEngine(config).run();
    ASSERT_EQ(result.rounds, 48u);
    ASSERT_EQ(result.intervals, 11u);
    EXPECT_EQ(tap.rounds, 48u);

    std::string rounds;
    for (const std::uint64_t r : tap.mismatched)
        rounds += " " + std::to_string(r);
    EXPECT_TRUE(tap.mismatched.empty())
        << tap.mismatched.size() << " of 48 round-end snapshots embed "
        << "a verdict offline analyze() does not reproduce:" << rounds;

    JsonValue final_doc;
    RunSeries series;
    ASSERT_TRUE(parseJson(renderSnapshot(observer), final_doc).ok());
    ASSERT_TRUE(seriesFromMetricsJson(final_doc, series).ok());
    EXPECT_EQ(embeddedVerdict(final_doc), flatVerdict(analyze(series)));
    EXPECT_EQ(embeddedVerdict(final_doc), flatVerdict(observer.grade()))
        << "grade() is the verdict the final snapshot embeds";
}

TEST(LivePlane, RaisedStopFlagEndsTheRunWithSnapshotIntact)
{
    ServeConfig config = fixtureConfig();
    std::atomic<bool> stop{true};
    config.stopFlag = &stop;

    const LiveRun live = runLive(config, 2);
    EXPECT_TRUE(live.result.stopped);
    EXPECT_LT(live.result.rounds, 48u);

    JsonValue doc;
    ASSERT_TRUE(parseJson(live.snapshotJson, doc).ok());
    EXPECT_EQ(doc.at("round").asU64(), live.result.rounds)
        << "the final snapshot reflects where the run stopped";
}

// --- Golden prism-metrics-v1 snapshot -----------------------------

#ifndef PRISM_METRICS_GOLDEN_DEFAULT
#define PRISM_METRICS_GOLDEN_DEFAULT \
    "tests/golden/METRICS_fixture.json"
#endif
#ifndef PRISM_METRICS_PROM_GOLDEN_DEFAULT
#define PRISM_METRICS_PROM_GOLDEN_DEFAULT \
    "tests/golden/METRICS_fixture.prom"
#endif

namespace
{

/** Compare @p text with the golden at @p path, or rewrite the
 *  golden under PRISM_UPDATE_GOLDEN. */
void
expectGolden(const std::string &text, const std::string &path)
{
    if (std::getenv("PRISM_UPDATE_GOLDEN")) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << text;
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden snapshot " << path
                    << " (regenerate with PRISM_UPDATE_GOLDEN=1)";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(text, golden.str())
        << "prism-metrics-v1 format drifted; if intentional "
           "regenerate with PRISM_UPDATE_GOLDEN=1";
}

} // namespace

TEST(MetricsGolden, MatchesCommittedFixture)
{
    const char *path_env = std::getenv("PRISM_METRICS_GOLDEN");
    expectGolden(runLive(fixtureConfig(), 2).snapshotJson,
                 path_env ? path_env : PRISM_METRICS_GOLDEN_DEFAULT);
}

TEST(MetricsGolden, PrometheusTextMatchesCommittedFixture)
{
    expectGolden(runLive(fixtureConfig(), 2).snapshotProm,
                 PRISM_METRICS_PROM_GOLDEN_DEFAULT);
}
