/**
 * @file
 * WayMaskScheme ("PriSM-WM"): the CAT-style way-mask backend of the
 * shared control loop.
 *
 * Covers the backend's whole contract: target-to-way quantisation
 * agrees with roundFractionsToWays and its recorded error statistic,
 * the inherited way-partition enforcement never lets a core exceed
 * its masked ways, the shared controller's victim sampler matches
 * the eviction distribution to chi-square precision, and a
 * fig02-style mix run through the real Runner earns a PASS from
 * prism_doctor's convergence checks.
 */

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/doctor.hh"
#include "analysis/series.hh"
#include "cache/shared_cache.hh"
#include "plane/way_mask_scheme.hh"
#include "policies/way_partition.hh"
#include "prism/alloc_hitmax.hh"
#include "sim/runner.hh"

using namespace prism;

namespace
{

/** A 2-core snapshot whose HitMax targets are strongly skewed. */
IntervalSnapshot
skewedSnap2(std::uint32_t ways)
{
    IntervalSnapshot snap;
    snap.totalBlocks = 1024;
    snap.ways = ways;
    snap.intervalMisses = 512;
    snap.cores.resize(2);
    snap.cores[0].occupancyBlocks = 512;
    snap.cores[0].sharedMisses = 400;
    snap.cores[0].shadowHitsAtPosition.assign(ways, 500.0);
    snap.cores[1].occupancyBlocks = 512;
    snap.cores[1].sharedMisses = 112;
    snap.cores[1].shadowHitsAtPosition.assign(ways, 10.0);
    return snap;
}

std::unique_ptr<WayMaskScheme>
makeScheme2(std::uint32_t ways, std::uint64_t seed = 42)
{
    return std::make_unique<WayMaskScheme>(
        2, ways, std::make_unique<HitMaxPolicy>(), seed);
}

Addr
addrFor(std::uint32_t set, std::uint64_t tag)
{
    return static_cast<Addr>(tag) * 256 + set;
}

} // namespace

// --- quantisation -------------------------------------------------

TEST(WayMaskQuantisation, AllocationIsRoundedTargets)
{
    auto scheme = makeScheme2(8);
    scheme->onIntervalEnd(skewedSnap2(8));

    const std::vector<double> &t = scheme->controller().targets();
    ASSERT_EQ(t.size(), 2u);
    const auto expected = roundFractionsToWays(t, 8);
    EXPECT_EQ(scheme->allocation(), expected);

    // The skew must actually have moved ways: HitMax favours core 0.
    EXPECT_GT(scheme->allocation()[0], scheme->allocation()[1]);
}

TEST(WayMaskQuantisation, ErrorStatMatchesHandComputation)
{
    auto scheme = makeScheme2(8);
    scheme->onIntervalEnd(skewedSnap2(8));

    const std::vector<double> &t = scheme->controller().targets();
    const auto alloc = roundFractionsToWays(t, 8);
    double err = 0.0;
    for (std::size_t i = 0; i < 2; ++i)
        err += std::abs(static_cast<double>(alloc[i]) - t[i] * 8.0);
    err /= 2.0;

    ASSERT_EQ(scheme->wayQuantError().count(), 1u);
    EXPECT_DOUBLE_EQ(scheme->wayQuantError().mean(), err);
    // Largest-remainder rounding never misses by a whole way per
    // core on a 2-core split (each entry is off by < 1 before the
    // one-way-minimum correction).
    EXPECT_LT(scheme->wayQuantError().mean(), 1.0);
}

TEST(WayMaskQuantisation, ErrorAccumulatesPerRecompute)
{
    auto scheme = makeScheme2(16);
    for (int i = 0; i < 5; ++i)
        scheme->onIntervalEnd(skewedSnap2(16));
    EXPECT_EQ(scheme->wayQuantError().count(), 5u);
    EXPECT_EQ(scheme->controller().recomputes(), 5u);
}

// --- enforcement --------------------------------------------------

TEST(WayMaskEnforcement, OccupancyNeverExceedsMaskedWays)
{
    CacheConfig cfg;
    cfg.sizeBytes = 64 * 1024;
    cfg.ways = 4;
    cfg.numCores = 2;
    cfg.intervalMisses = 1u << 20; // interval hook driven manually

    SharedCache cache(cfg);
    auto scheme = makeScheme2(4);
    cache.setScheme(scheme.get());

    // Install the skewed allocation (3/1 on 4 ways for this snap).
    scheme->onIntervalEnd(skewedSnap2(4));
    const auto alloc = scheme->allocation();
    ASSERT_EQ(alloc[0] + alloc[1], 4u);

    // Both cores hammer the same sets with disjoint tags; once every
    // way is valid, the mask quota must cap each core's share.
    for (std::uint64_t round = 0; round < 64; ++round) {
        for (std::uint32_t set = 0; set < 4; ++set) {
            cache.access(0, addrFor(set, 100 + round));
            cache.access(1, addrFor(set, 9000 + round));
        }
    }
    for (std::uint32_t set = 0; set < 4; ++set) {
        EXPECT_LE(cache.countInSet(set, 0), alloc[0])
            << "set " << set;
        EXPECT_LE(cache.countInSet(set, 1), alloc[1])
            << "set " << set;
    }
}

// --- the shared controller's victim sampler -----------------------

TEST(WayMaskSampler, VictimDrawsMatchDistributionChiSquare)
{
    WayMaskScheme scheme(4, 16, std::make_unique<HitMaxPolicy>(),
                         1234);
    const std::vector<double> e = {0.45, 0.3, 0.2, 0.05};
    scheme.controller().setEvictionProbs(e);

    constexpr std::uint64_t kDraws = 200000;
    std::vector<std::uint64_t> counts(4, 0);
    for (std::uint64_t i = 0; i < kDraws; ++i) {
        const std::uint32_t v = scheme.controller().sampleVictim();
        ASSERT_LT(v, 4u);
        ++counts[v];
    }

    // Pearson chi-square, df 3; critical value 16.27 at alpha 0.001.
    double chi2 = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
        const double expected = e[i] * static_cast<double>(kDraws);
        const double d = static_cast<double>(counts[i]) - expected;
        chi2 += d * d / expected;
    }
    EXPECT_LT(chi2, 16.27);
}

// --- registration ------------------------------------------------

TEST(WayMaskPlane, SchemeNameRegistered)
{
    SchemeKind kind;
    ASSERT_TRUE(schemeFromName("PriSM-WM", kind));
    EXPECT_EQ(kind, SchemeKind::PrismWM);
    EXPECT_STREQ(schemeName(SchemeKind::PrismWM), "PriSM-WM");
}

// --- end to end: doctor verdict on a fig02-style mix --------------

TEST(WayMaskDoctor, Fig02StyleMixPasses)
{
    MachineConfig m = MachineConfig::forCores(4);
    m.instrBudget = 150'000;
    m.warmupInstr = 50'000;
    Runner runner(m);
    Workload w{"fig02-style",
               {"179.art", "470.lbm", "403.gcc", "300.twolf"}};

    SchemeOptions options;
    options.telemetry.enabled = true;
    const RunResult res = runner.run(w, SchemeKind::PrismWM, options);
    EXPECT_EQ(res.scheme, "PriSM-WM");
    EXPECT_EQ(res.plane, "way-mask");
    EXPECT_GT(res.recomputes, 0u);
    ASSERT_NE(res.recorder, nullptr);

    analysis::RunSeries s =
        analysis::seriesFromRecorder(*res.recorder, w.name);
    analysis::attachRunResult(s, res);
    s.name = w.name;
    EXPECT_EQ(s.plane, "way-mask");
    EXPECT_TRUE(s.hasWayQuant);

    const analysis::Verdict v = analysis::analyze(s);
    EXPECT_EQ(v.backend, "way-mask");
    EXPECT_EQ(v.overall, analysis::FindingStatus::Pass)
        << [&] {
               std::string all;
               for (const auto &f : v.findings)
                   all += f.check + "=" +
                          analysis::findingStatusName(f.status) +
                          " (" + f.detail + ")\n";
               return all;
           }();

    // The plane check itself must be present and clean: way-mask
    // quantisation on this mix stays well under a way on average.
    bool saw_plane_check = false;
    for (const auto &f : v.findings) {
        if (f.check == "plane.way_quant_error") {
            saw_plane_check = true;
            EXPECT_EQ(f.status, analysis::FindingStatus::Pass);
            EXPECT_LT(f.value, 1.0);
        }
    }
    EXPECT_TRUE(saw_plane_check);
}
