/**
 * @file
 * Metrics exposition tests: the prism-metrics-v1 JSON layout (section
 * presence rules, byte-determinism, round-trip through the strict
 * parser), the Prometheus text rendering (label escaping, metric-name
 * sanitisation, cumulative histogram buckets), and the live
 * observer's --metrics-every cadence and atomic file flushing.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/online_doctor.hh"
#include "common/json.hh"
#include "serve/serve_engine.hh"
#include "telemetry/exporter.hh"
#include "telemetry/metrics_registry.hh"
#include "telemetry/window.hh"

using namespace prism;
using namespace prism::telemetry;

namespace
{

IntervalSample
sampleOf(std::uint64_t interval, std::vector<std::uint64_t> hits,
         std::vector<std::uint64_t> misses,
         std::vector<double> ev_prob)
{
    IntervalSample s;
    s.interval = interval;
    s.hits = std::move(hits);
    s.misses = std::move(misses);
    s.evProb = std::move(ev_prob);
    s.occupancy = {0.5, 0.5};
    s.target = {0.5, 0.5};
    return s;
}

/** A fully populated two-tenant snapshot over @p win / @p reg. */
MetricsSnapshot
serveSnapshot(const SlidingWindow *win, const MetricsRegistry *reg)
{
    MetricsSnapshot snap;
    snap.run = "serve/PriSM-H";
    snap.policy = "HitMax";
    snap.round = 12;
    snap.ops = 98304;
    snap.intervals = 3;
    snap.evictions = 100;
    snap.recomputes = 3;
    snap.occupancyBytes = 900;
    snap.capacityBytes = 1000;
    snap.objects = 40;
    snap.tenants.resize(2);
    snap.tenants[0].hits = 700;
    snap.tenants[0].misses = 300;
    snap.tenants[0].hitRatio = 0.7;
    snap.tenants[0].target = 0.5;
    snap.tenants[1].hits = 600;
    snap.tenants[1].misses = 400;
    snap.tenants[1].hitRatio = 0.6;
    snap.tenants[1].target = 0.5;
    snap.window = win;
    snap.metrics = reg;
    return snap;
}

std::string
renderJson(const MetricsSnapshot &snap)
{
    std::ostringstream os;
    writeJson(os, snap);
    return os.str();
}

std::string
renderProm(const MetricsSnapshot &snap)
{
    std::ostringstream os;
    writePrometheus(os, snap);
    return os.str();
}

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** An observer over a two-tenant serve config, driven by hand. */
analysis::ServeLiveObserver
observerWith(const std::string &json_path, const std::string &prom_path,
             std::uint64_t every)
{
    serve::ServeConfig config;
    config.tenants.resize(2);
    analysis::LiveObserverOptions options;
    options.metricsJsonPath = json_path;
    options.metricsPromPath = prom_path;
    options.metricsEvery = every;
    return analysis::ServeLiveObserver(config, options);
}

/** End round @p round on @p observer; whether that wrote @p path. */
bool
writesAt(analysis::ServeLiveObserver &observer, std::uint64_t round,
         const std::filesystem::path &path)
{
    std::filesystem::remove(path);
    serve::ServeLiveState state;
    state.rounds = round;
    observer.onRoundEnd(state);
    return std::filesystem::exists(path);
}

/** A fresh, empty scratch directory named @p name. */
std::filesystem::path
scratchDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

} // namespace

TEST(MetricsExporterJson, RendersDeterministicallyAndParsesBack)
{
    SlidingWindow win(2);
    IntervalSample sample = sampleOf(1, {100, 200}, {50, 50}, {0.5, 0.5});
    sample.evictions = {10, 20};
    win.push(sample);
    MetricsRegistry reg;
    reg.counter("serve.gets").add(42);

    const MetricsSnapshot snap = serveSnapshot(&win, &reg);
    const std::string a = renderJson(snap);
    const std::string b = renderJson(snap);
    EXPECT_EQ(a, b) << "rendering must be a pure function";

    JsonValue doc;
    ASSERT_TRUE(parseJson(a, doc).ok());
    EXPECT_EQ(doc.at("schema").asString(), "prism-metrics-v1");
    EXPECT_EQ(doc.at("source").asString(), "serve");
    EXPECT_EQ(doc.at("round").asU64(), 12u);
    EXPECT_EQ(doc.at("totals").at("evictions").asU64(), 100u);
    ASSERT_EQ(doc.at("tenants").size(), 2u);
    const JsonValue &t0 = doc.at("tenants").at(std::size_t{0});
    EXPECT_EQ(t0.at("hits").asU64(), 700u);
    EXPECT_TRUE(t0.at("window").isObject())
        << "per-tenant window stats ride along when a window is set";
    EXPECT_EQ(doc.at("window").at("size").asU64(), 1u);
    EXPECT_EQ(doc.at("metrics")
                  .at("counters")
                  .at("serve.gets")
                  .asU64(),
              42u);
}

TEST(MetricsExporterJson, EmptySectionsAreOmitted)
{
    MetricsSnapshot snap;
    snap.run = "fixture";
    snap.round = 1;

    JsonValue doc;
    ASSERT_TRUE(parseJson(renderJson(snap), doc).ok());
    EXPECT_TRUE(doc.at("policy").isNull());
    EXPECT_TRUE(doc.at("totals").isNull());
    EXPECT_TRUE(doc.at("tenants").isNull());
    EXPECT_TRUE(doc.at("window").isNull());
    EXPECT_TRUE(doc.at("doctor").isNull());
    EXPECT_TRUE(doc.at("metrics").isNull());
    // The telemetry drop counters always render.
    EXPECT_TRUE(doc.at("telemetry").isObject());
}

TEST(MetricsExporterJson, DoctorSectionCarriesFindings)
{
    MetricsSnapshot snap;
    snap.run = "serve/PriSM-H";
    snap.doctorOverall = "WARN";
    DoctorFindingLine f;
    f.check = "drift.miss_rate";
    f.status = "WARN";
    f.value = 0.75;
    f.threshold = 0.5;
    f.hasValue = true;
    f.detail = "max relative EWMA miss-rate drift 0.75 (tenant 0)";
    snap.doctorFindings.push_back(f);

    JsonValue doc;
    ASSERT_TRUE(parseJson(renderJson(snap), doc).ok());
    EXPECT_EQ(doc.at("doctor").at("overall").asString(), "WARN");
    const JsonValue &line =
        doc.at("doctor").at("findings").at(std::size_t{0});
    EXPECT_EQ(line.at("check").asString(), "drift.miss_rate");
    EXPECT_EQ(line.at("status").asString(), "WARN");
    EXPECT_DOUBLE_EQ(line.at("value").asDouble(), 0.75);
}

TEST(MetricsExporterProm, EscapesLabelsAndSanitisesNames)
{
    MetricsRegistry reg;
    reg.counter("serve/odd-name.gets").add(7);

    MetricsSnapshot snap;
    snap.run = "run \"quoted\"\\slash\nnewline";
    snap.metrics = &reg;

    const std::string text = renderProm(snap);
    EXPECT_NE(text.find("run=\"run \\\"quoted\\\"\\\\slash"
                        "\\nnewline\""),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("prism_metric_serve_odd_name_gets 7"),
              std::string::npos)
        << text;
}

TEST(MetricsExporterProm, HistogramBucketsAreCumulative)
{
    MetricsRegistry reg;
    const std::vector<double> bounds{1.0, 10.0, 100.0};
    Histogram &h = reg.histogram("latency", bounds);
    h.observe(0.5);   // bucket 0
    h.observe(5.0);   // bucket 1
    h.observe(50.0);  // bucket 2
    h.observe(500.0); // overflow

    MetricsSnapshot snap;
    snap.run = "serve/PriSM-H";
    snap.metrics = &reg;

    const std::string text = renderProm(snap);
    EXPECT_NE(text.find("prism_metric_latency_bucket{le=\"1\"} 1"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("prism_metric_latency_bucket{le=\"10\"} 2"),
              std::string::npos)
        << text;
    EXPECT_NE(
        text.find("prism_metric_latency_bucket{le=\"100\"} 3"),
        std::string::npos)
        << text;
    EXPECT_NE(
        text.find("prism_metric_latency_bucket{le=\"+Inf\"} 4"),
        std::string::npos)
        << text;
    EXPECT_NE(text.find("prism_metric_latency_count 4"),
              std::string::npos)
        << text;
}

TEST(MetricsExporterCadence, DueFollowsEveryOnTheRoundCounter)
{
    const std::filesystem::path dir = scratchDir("prism_exporter_cadence");
    const std::filesystem::path path = dir / "x.json";

    analysis::ServeLiveObserver off = observerWith("", "", 4);
    EXPECT_FALSE(writesAt(off, 4, path)) << "no outputs, never due";
    EXPECT_TRUE(off.flushFinal().ok());
    EXPECT_TRUE(std::filesystem::is_empty(dir));

    analysis::ServeLiveObserver final_only =
        observerWith(path.string(), "", 0);
    EXPECT_FALSE(writesAt(final_only, 1, path));
    EXPECT_FALSE(writesAt(final_only, 100, path));
    ASSERT_TRUE(final_only.flushFinal().ok());
    EXPECT_TRUE(std::filesystem::exists(path))
        << "the final snapshot is written";

    analysis::ServeLiveObserver every4 =
        observerWith(path.string(), "", 4);
    EXPECT_FALSE(writesAt(every4, 0, path));
    EXPECT_FALSE(writesAt(every4, 3, path));
    EXPECT_TRUE(writesAt(every4, 4, path));
    EXPECT_FALSE(writesAt(every4, 5, path));
    EXPECT_TRUE(writesAt(every4, 8, path));

    std::filesystem::remove_all(dir);
}

TEST(MetricsExporterFlush, WritesBothFilesAtomically)
{
    const std::filesystem::path dir = scratchDir("prism_exporter_test");
    const std::string json_path = (dir / "m.json").string();
    const std::string prom_path = (dir / "m.prom").string();

    analysis::ServeLiveObserver observer =
        observerWith(json_path, prom_path, 2);
    serve::ServeLiveState state;
    state.rounds = 2;
    observer.onRoundEnd(state);

    ASSERT_TRUE(observer.flushFinal().ok());

    JsonValue doc;
    ASSERT_TRUE(parseJson(slurp(json_path), doc).ok());
    EXPECT_EQ(doc.at("schema").asString(), "prism-metrics-v1");
    const std::string prom = slurp(prom_path);
    EXPECT_EQ(prom.rfind("# HELP prism_info", 0), 0u) << prom;

    std::filesystem::remove_all(dir);
}

TEST(MetricsExporterFlush, UnwritablePathReportsAnError)
{
    analysis::ServeLiveObserver observer =
        observerWith("/nonexistent-dir/sub/m.json", "", 0);
    EXPECT_FALSE(observer.flushFinal().ok());
}
