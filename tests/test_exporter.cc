/**
 * @file
 * Snapshot rendering tests over a ServeLiveObserver fed hand-built
 * engine state: the prism-metrics-v1 JSON layout (the sections every
 * snapshot has and those that depend on state, byte-determinism,
 * round-trip through the strict parser, the embedded doctor
 * section), the Prometheus text rendering (the policy-derived run
 * label, metric-name sanitisation, cumulative histogram buckets),
 * and the observer's --metrics-every cadence and atomic file
 * flushing.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/online_doctor.hh"
#include "common/json.hh"
#include "serve/serve_engine.hh"
#include "telemetry/metrics_registry.hh"

using namespace prism;
using namespace prism::telemetry;
using analysis::ServeLiveObserver;

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

/** A two-tenant serve config under @p policy. */
serve::ServeConfig
twoTenants(char policy = 'H')
{
    serve::ServeConfig config;
    config.tenants.resize(2);
    config.policy = policy;
    return config;
}

/** Engine state at round 12 of a two-tenant run, with @p reg as its
 *  registry (may be null). */
serve::ServeLiveState
stateWith(std::shared_ptr<MetricsRegistry> reg)
{
    serve::ServeLiveState state;
    state.rounds = 12;
    state.ops = 98304;
    state.intervals = 3;
    state.evictions = 100;
    state.recomputes = 3;
    state.occupancyBytes = 900;
    state.objects = 40;
    state.tenants.resize(2);
    state.tenants[0].hits = 700;
    state.tenants[0].misses = 300;
    state.tenants[1].hits = 600;
    state.tenants[1].misses = 400;
    state.targets = {0.5, 0.5};
    state.evProbs = {0.5, 0.5};
    state.metrics = std::move(reg);
    return state;
}

std::string
renderJson(const ServeLiveObserver &observer)
{
    std::ostringstream os;
    observer.writeJson(os);
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
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** An observer over a two-tenant serve config, driven by hand. */
ServeLiveObserver
observerWith(const std::string &json_path, const std::string &prom_path,
             std::uint64_t every)
{
    analysis::LiveObserverOptions options;
    options.metricsJsonPath = json_path;
    options.metricsPromPath = prom_path;
    options.metricsEvery = every;
    return ServeLiveObserver(twoTenants(), options);
}

/** End round @p round on @p observer; whether that wrote @p path. */
bool
writesAt(ServeLiveObserver &observer, std::uint64_t round,
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
    auto reg = std::make_shared<MetricsRegistry>();
    reg->counter("serve.gets").add(42);
    ServeLiveObserver observer(twoTenants(), {});
    IntervalSample sample = sampleOf(1, {100, 200}, {50, 50}, {0.5, 0.5});
    sample.evictions = {10, 20};
    observer.onIntervalClosed(sample, sample.evictions, stateWith(reg));

    const std::string a = renderJson(observer);
    const std::string b = renderJson(observer);
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
    EXPECT_DOUBLE_EQ(t0.at("hit_ratio").asDouble(), 0.7);
    EXPECT_TRUE(t0.at("window").isObject())
        << "per-tenant window stats ride along";
    EXPECT_EQ(doc.at("window").at("size").asU64(), 1u);
    EXPECT_EQ(doc.at("metrics")
                  .at("counters")
                  .at("serve.gets")
                  .asU64(),
              42u);
}

TEST(MetricsExporterJson, EmptySectionsAreOmitted)
{
    // Before any hook fires, with the doctor off and the run not
    // ended, there is no verdict, registry or history to render.
    const ServeLiveObserver observer(twoTenants(), {});

    JsonValue doc;
    ASSERT_TRUE(parseJson(renderJson(observer), doc).ok());
    EXPECT_TRUE(doc.at("doctor").isNull());
    EXPECT_TRUE(doc.at("metrics").isNull());
    EXPECT_TRUE(doc.at("history").isNull());
    // Every snapshot has these.
    for (const char *section :
         {"policy", "totals", "tenants", "window", "telemetry"})
        EXPECT_FALSE(doc.at(section).isNull()) << section;
}

TEST(MetricsExporterJson, DoctorSectionCarriesFindings)
{
    analysis::LiveObserverOptions options;
    options.onlineDoctor = true;
    ServeLiveObserver observer(twoTenants(), options);
    // Tenant 0's miss rate triples between two intervals, a relative
    // EWMA drift of 2 against the 0.5 bound.
    const serve::ServeLiveState state = stateWith(nullptr);
    observer.onIntervalClosed(sampleOf(1, {8, 5}, {2, 5}, {0.5, 0.5}),
                              {}, state);
    observer.onIntervalClosed(sampleOf(2, {4, 5}, {6, 5}, {0.5, 0.5}),
                              {}, state);

    JsonValue doc;
    ASSERT_TRUE(parseJson(renderJson(observer), doc).ok());
    const analysis::Verdict verdict = observer.grade();
    EXPECT_EQ(doc.at("doctor").at("overall").asString(),
              analysis::findingStatusName(verdict.overall));
    const JsonValue &findings = doc.at("doctor").at("findings");
    ASSERT_EQ(findings.size(), verdict.findings.size());
    bool found = false;
    for (const JsonValue &line : findings.elements()) {
        if (line.at("check").asString() != "drift.miss_rate")
            continue;
        found = true;
        EXPECT_EQ(line.at("status").asString(), "WARN");
        EXPECT_DOUBLE_EQ(line.at("value").asDouble(), 2.0);
        EXPECT_DOUBLE_EQ(line.at("threshold").asDouble(), 0.5);
    }
    EXPECT_TRUE(found);
}

TEST(MetricsExporterProm, DerivesRunLabelAndSanitisesNames)
{
    auto reg = std::make_shared<MetricsRegistry>();
    reg->counter("serve/odd-name.gets").add(7);
    ServeLiveObserver observer(twoTenants('F'), {});
    observer.onRoundEnd(stateWith(reg));

    const std::string text = renderProm(observer);
    EXPECT_NE(text.find("prism_info{source=\"serve\","
                        "run=\"serve/PriSM-F\",policy=\"Fair\"} 1"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("prism_metric_serve_odd_name_gets 7"),
              std::string::npos)
        << text;
}

TEST(MetricsExporterProm, HistogramBucketsAreCumulative)
{
    auto reg = std::make_shared<MetricsRegistry>();
    const std::vector<double> bounds{1.0, 10.0, 100.0};
    Histogram &h = reg->histogram("latency", bounds);
    h.observe(0.5);   // bucket 0
    h.observe(5.0);   // bucket 1
    h.observe(50.0);  // bucket 2
    h.observe(500.0); // overflow
    ServeLiveObserver observer(twoTenants(), {});
    observer.onRoundEnd(stateWith(reg));

    const std::string text = renderProm(observer);
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

    ServeLiveObserver off = observerWith("", "", 4);
    EXPECT_FALSE(writesAt(off, 4, path)) << "no outputs, never due";
    EXPECT_TRUE(off.flushFinal().ok());
    EXPECT_TRUE(std::filesystem::is_empty(dir));

    ServeLiveObserver final_only = observerWith(path.string(), "", 0);
    EXPECT_FALSE(writesAt(final_only, 1, path));
    EXPECT_FALSE(writesAt(final_only, 100, path));
    ASSERT_TRUE(final_only.flushFinal().ok());
    EXPECT_TRUE(std::filesystem::exists(path))
        << "the final snapshot is written";

    ServeLiveObserver every4 = observerWith(path.string(), "", 4);
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

    ServeLiveObserver observer = observerWith(json_path, prom_path, 2);
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
    ServeLiveObserver observer =
        observerWith("/nonexistent-dir/sub/m.json", "", 0);
    EXPECT_FALSE(observer.flushFinal().ok());
}
