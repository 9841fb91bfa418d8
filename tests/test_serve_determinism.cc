/**
 * @file
 * The serving plane's determinism and statistical contracts
 * (docs/SERVING.md):
 *
 *  1. For a fixed op budget with timing off, the run's document —
 *     the live observer's final `prism-metrics-v1` snapshot, with the
 *     whole run's interval rows under "history" — is byte-identical
 *     at 1, 2 and 8 worker threads: logical streams own the RNGs, so
 *     threads are pure machinery.
 *  2. Realised victim-tenant eviction frequencies match Equation 1's
 *     E_i: per interval, victims are drawn from the distribution the
 *     arbiter had in effect, so summing E_i-weighted expectations
 *     over intervals predicts the per-tenant eviction totals to
 *     chi-square precision (the serving analogue of the simulator's
 *     Core-Selection validation).
 *  3. The final snapshots for policies H, F and Q at the fixture
 *     config, and at a config whose evictions often take the
 *     victimless fallback, match the committed SERVE_fixture.json
 *     byte for byte at 1 and 8 threads. Regenerate after an
 *     intentional change with
 *       PRISM_UPDATE_GOLDEN=1 build/tests/test_serve_determinism \
 *           --gtest_filter=ServeGolden.*
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/online_doctor.hh"
#include "serve/serve_engine.hh"

using namespace prism;
using namespace prism::serve;

namespace
{

/** Small but eviction-heavy configuration: working set ~4x budget. */
ServeConfig
fixtureConfig()
{
    ServeConfig config;
    TenantSpec spec;
    spec.keys = 40000;
    config.tenants.assign(3, spec);
    config.tenants[2].zipf = 0.8; // one tenant with a flatter head
    config.capacityBytes = 4ull << 20;
    config.shards = 16;
    config.streams = 8;
    config.batch = 1024;
    config.intervalMisses = 8192;
    config.opBudget = 400000;
    config.timing = false;
    config.seed = 2012;
    return config;
}

/**
 * The fixture store with a tenant that runs dry: tenant 0 streams
 * uniformly over a huge keyspace of tiny objects, so it misses on
 * almost every get yet holds few bytes. Its miss share M_0 keeps
 * Equation 1 drawing it after those bytes are gone, and the
 * victimless fallback charges the fattest tenant instead.
 */
ServeConfig
victimlessConfig()
{
    ServeConfig config = fixtureConfig();
    TenantSpec stream;
    stream.keys = 1000000;
    stream.zipf = 0.0;
    stream.getFrac = 0.9;
    stream.vmin = stream.vmax = 64;
    stream.weight = 4.0;
    TenantSpec churn;
    churn.keys = 40000;
    churn.vmin = 512;
    churn.vmax = 2048;
    config.tenants = {stream, churn, churn};
    config.tenants[2].zipf = 0.8;
    return config;
}

/** One run under the live observer, as prism_serve makes it. */
struct ServeRun
{
    ServeResult result;
    /** The final snapshot: the run's document. */
    std::string json;
    /** The observer's history rows, oldest first. */
    std::vector<telemetry::IntervalSample> history;
};

ServeRun
runServe(ServeConfig config, std::uint32_t threads)
{
    config.threads = threads;
    analysis::ServeLiveObserver observer(config, {});
    config.observer = &observer;
    ServeRun out;
    out.result = ServeEngine(config).run();
    std::ostringstream os;
    observer.writeJson(os);
    out.json = os.str();
    for (std::size_t i = 0; i < observer.history().size(); ++i)
        out.history.push_back(observer.history().sample(i));
    return out;
}

} // namespace

TEST(ServeDeterminism, JsonIsByteIdenticalAcrossThreadCounts)
{
    const ServeConfig config = fixtureConfig();
    const std::string t1 = runServe(config, 1).json;
    const std::string t2 = runServe(config, 2).json;
    const std::string t8 = runServe(config, 8).json;

    EXPECT_NE(t1.find("\"history\""), std::string::npos);
    EXPECT_EQ(t1, t2);
    EXPECT_EQ(t1, t8);
}

TEST(ServeDeterminism, SeedChangesTheRun)
{
    ServeConfig config = fixtureConfig();
    const std::string a = runServe(config, 2).json;
    config.seed = 2013;
    const std::string b = runServe(config, 2).json;
    EXPECT_NE(a, b);
}

TEST(ServeVictimMatch, EvictionFrequenciesFollowEq1)
{
    const ServeConfig config = fixtureConfig();
    const ServeRun run = runServe(config, 4);
    ASSERT_GT(run.result.evictions, 0u) << "fixture must evict";

    // Expected per-tenant evictions: each interval's eviction count
    // weighted by the E distribution in effect during it (the
    // recorded row's evProb is exactly that, by the serve recording
    // convention).
    const std::size_t tenants = config.tenants.size();
    std::vector<double> expected(tenants, 0.0);
    std::vector<double> observed(tenants, 0.0);
    for (const telemetry::IntervalSample &row : run.history) {
        ASSERT_EQ(row.evProb.size(), tenants);
        ASSERT_EQ(row.evictions.size(), tenants);
        std::uint64_t row_total = 0;
        for (const std::uint64_t v : row.evictions)
            row_total += v;
        for (std::size_t t = 0; t < tenants; ++t) {
            expected[t] +=
                row.evProb[t] * static_cast<double>(row_total);
            observed[t] += static_cast<double>(row.evictions[t]);
        }
    }

    // Pearson chi-square at alpha 0.001. Critical values:
    // df 1: 10.828, df 2: 13.816, df 3: 16.266.
    static const double kCritical[] = {0.0, 10.828, 13.816, 16.266};
    double chi2 = 0.0;
    std::size_t cells = 0;
    for (std::size_t t = 0; t < tenants; ++t) {
        if (expected[t] < 5.0)
            continue; // too thin for the asymptotic test
        ++cells;
        const double d = observed[t] - expected[t];
        chi2 += d * d / expected[t];
    }
    ASSERT_GE(cells, 2u) << "fixture produced too few evictions";
    EXPECT_LT(chi2, kCritical[cells - 1])
        << "victim-tenant frequencies diverge from Equation 1";
}

TEST(ServeVictimMatch, TenantEvictionTotalsAreConsistent)
{
    const ServeRun run = runServe(fixtureConfig(), 2);
    const ServeResult &result = run.result;

    // Per-tenant totals must sum to the run total; with no ring wrap
    // every interval row is retained, and the rows hold every
    // eviction (the last round's fall in the tail interval).
    std::uint64_t sum = 0;
    for (const TenantTotals &t : result.tenants)
        sum += t.evictions;
    EXPECT_EQ(sum, result.evictions);
    ASSERT_EQ(result.intervals, run.history.size());
    std::uint64_t in_rows = 0;
    for (const telemetry::IntervalSample &row : run.history)
        for (const std::uint64_t v : row.evictions)
            in_rows += v;
    EXPECT_EQ(in_rows, result.evictions);
}

// --- Golden final snapshots ---------------------------------------

#ifndef PRISM_SERVE_GOLDEN_DEFAULT
#define PRISM_SERVE_GOLDEN_DEFAULT "tests/golden/SERVE_fixture.json"
#endif

namespace
{

/**
 * The H, F and Q final snapshots of the fixture config, then those
 * of the victimless config, as one JSON array.
 */
std::string
policyDocuments(std::uint32_t threads)
{
    std::string out = "[\n";
    const char *separator = "";
    for (const ServeConfig &base : {fixtureConfig(), victimlessConfig()})
        for (const char policy : {'H', 'F', 'Q'}) {
            ServeConfig config = base;
            config.policy = policy;
            out += separator;
            out += runServe(config, threads).json;
            separator = ",\n";
        }
    return out + "\n]\n";
}

} // namespace

TEST(ServeGolden, PolicyDocumentsMatchCommittedFixture)
{
    const char *path_env = std::getenv("PRISM_SERVE_GOLDEN");
    const std::string path =
        path_env ? path_env : PRISM_SERVE_GOLDEN_DEFAULT;

    const std::string t1 = policyDocuments(1);
    if (std::getenv("PRISM_UPDATE_GOLDEN")) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << t1;
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden documents " << path
                    << " (regenerate with PRISM_UPDATE_GOLDEN=1)";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(t1, golden.str())
        << "serve output drifted; if intentional regenerate with "
           "PRISM_UPDATE_GOLDEN=1";
    EXPECT_EQ(policyDocuments(8), golden.str());
}
