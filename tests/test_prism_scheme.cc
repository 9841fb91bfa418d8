/**
 * @file
 * Tests for the PriSM probabilistic cache manager: core selection,
 * victim identification, the victimless fallback and occupancy
 * convergence towards targets.
 */

#include <gtest/gtest.h>

#include "cache/shared_cache.hh"
#include "common/rng.hh"
#include "prism/alloc_hitmax.hh"
#include "workload/generator.hh"
#include "prism/prism_scheme.hh"

using namespace prism;

namespace
{

CacheConfig
cfg()
{
    CacheConfig c;
    c.sizeBytes = 256 * 1024; // 4096 blocks
    c.ways = 8;               // 512 sets
    c.numCores = 2;
    c.intervalMisses = 2048;
    return c;
}

/** Policy with externally fixed targets. */
struct FixedTargets : PrismAllocPolicy
{
    explicit FixedTargets(std::vector<double> t) : targets(std::move(t))
    {}

    std::string name() const override { return "Fixed"; }

    std::vector<double>
    computeTargets(const IntervalSnapshot &) override
    {
        return targets;
    }

    unsigned arithmeticOps(unsigned) const override { return 0; }

    std::vector<double> targets;
};

} // namespace

TEST(PrismScheme, NameIncludesPolicy)
{
    PrismScheme s(2, std::make_unique<HitMaxPolicy>(), 1);
    EXPECT_EQ(s.name(), "PriSM-HitMax");
}

TEST(PrismScheme, InitialDistributionUniform)
{
    PrismScheme s(4, std::make_unique<HitMaxPolicy>(), 1);
    for (double e : s.controller().evictionProbs())
        EXPECT_NEAR(e, 0.25, 1e-12);
}

TEST(PrismScheme, OccupancyConvergesToTargets)
{
    SharedCache cache(cfg());
    PrismScheme s(2,
                  std::make_unique<FixedTargets>(
                      std::vector<double>{0.75, 0.25}),
                  7);
    cache.setScheme(&s);

    // Both cores stream uniformly over footprints larger than the
    // cache; without PriSM they would split the cache by miss rate
    // (here, evenly). The fixed targets must pull occupancy to 3:1.
    Rng rng(3);
    for (int i = 0; i < 400000; ++i) {
        const CoreId c = static_cast<CoreId>(rng.below(2));
        cache.access(c, makeBlockAddr(c, rng.below(8192)));
    }
    EXPECT_NEAR(cache.occupancyFraction(0), 0.75, 0.06);
    EXPECT_NEAR(cache.occupancyFraction(1), 0.25, 0.06);
}

TEST(PrismScheme, ZeroEvictionProbabilityProtects)
{
    SharedCache cache(cfg());
    PrismScheme s(2,
                  std::make_unique<FixedTargets>(
                      std::vector<double>{0.95, 0.05}),
                  7);
    cache.setScheme(&s);
    Rng rng(5);
    // Warm core 0 with a modest footprint, then hammer with core 1.
    for (int i = 0; i < 3000; ++i)
        cache.access(0, makeBlockAddr(0, rng.below(2048)));
    // Let an interval pass so E is computed from the fixed targets.
    for (int i = 0; i < 200000; ++i)
        cache.access(1, makeBlockAddr(1, rng.below(65536)));
    // Core 0 is under its 95% target: E_0 == 0, so its blocks are
    // never chosen (modulo last-resort fallback) and survive.
    EXPECT_GT(cache.occupancyFraction(0), 0.35);
}

TEST(PrismScheme, VictimlessFallbackCounted)
{
    SharedCache cache(cfg());
    PrismScheme s(2,
                  std::make_unique<FixedTargets>(
                      std::vector<double>{0.5, 0.5}),
                  7);
    cache.setScheme(&s);
    Rng rng(9);
    // Core 1 touches only a few sets; drawing core 1 as victim in
    // other sets forces the fallback path.
    for (int i = 0; i < 2000; ++i)
        cache.access(1, makeBlockAddr(1, rng.below(16)));
    for (int i = 0; i < 100000; ++i)
        cache.access(0, makeBlockAddr(0, rng.below(16384)));
    EXPECT_GT(s.victimlessReplacements(), 0u);
    EXPECT_GT(s.replacements(), 0u);
    EXPECT_GT(s.victimlessFraction(), 0.0);
    EXPECT_LE(s.victimlessFraction(), 1.0);
}

TEST(PrismScheme, RecomputesPerInterval)
{
    SharedCache cache(cfg()); // W = 2048
    PrismScheme s(2, std::make_unique<HitMaxPolicy>(), 7);
    cache.setScheme(&s);
    Rng rng(11);
    for (int i = 0; i < 50000; ++i)
        cache.access(static_cast<CoreId>(rng.below(2)),
                     makeBlockAddr(0, rng.below(65536)));
    const PrismController &ctl = s.controller();
    EXPECT_GE(ctl.recomputes(), 10u);
    EXPECT_EQ(ctl.recomputes(), cache.intervals());
    // Probability statistics recorded once per recompute.
    EXPECT_EQ(ctl.probStat(0).count(), ctl.recomputes());
}

TEST(PrismScheme, QuantisedDistributionStillNormalised)
{
    PrismParams params;
    params.probBits = 6;
    SharedCache cache(cfg());
    PrismScheme s(2, std::make_unique<HitMaxPolicy>(), 7, params);
    cache.setScheme(&s);
    Rng rng(13);
    for (int i = 0; i < 30000; ++i)
        cache.access(static_cast<CoreId>(rng.below(2)),
                     makeBlockAddr(0, rng.below(65536)));
    double sum = 0;
    for (double e : s.controller().evictionProbs())
        sum += e;
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(PrismScheme, WorksWithDipReplacement)
{
    CacheConfig c = cfg();
    c.repl = ReplKind::DIP;
    SharedCache cache(c);
    PrismScheme s(2,
                  std::make_unique<FixedTargets>(
                      std::vector<double>{0.7, 0.3}),
                  7);
    cache.setScheme(&s);
    Rng rng(17);
    for (int i = 0; i < 300000; ++i) {
        const CoreId core = static_cast<CoreId>(rng.below(2));
        cache.access(core, makeBlockAddr(core, rng.below(8192)));
    }
    // Occupancy control works regardless of the replacement policy.
    EXPECT_NEAR(cache.occupancyFraction(0), 0.7, 0.08);
}

TEST(PrismScheme, WorksWithTimestampLru)
{
    CacheConfig c = cfg();
    c.repl = ReplKind::TimestampLRU;
    SharedCache cache(c);
    PrismScheme s(2,
                  std::make_unique<FixedTargets>(
                      std::vector<double>{0.6, 0.4}),
                  7);
    cache.setScheme(&s);
    Rng rng(19);
    for (int i = 0; i < 300000; ++i) {
        const CoreId core = static_cast<CoreId>(rng.below(2));
        cache.access(core, makeBlockAddr(core, rng.below(8192)));
    }
    EXPECT_NEAR(cache.occupancyFraction(0), 0.6, 0.08);
}
