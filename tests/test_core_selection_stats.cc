/**
 * @file
 * Statistical validation of PriSM Core-Selection (paper §3.1): the
 * sampled victim-core frequencies must match the eviction
 * distribution E. Chi-square goodness-of-fit over 1e5 draws with
 * fixed seeds (deterministic, no flakiness); the acceptance
 * thresholds are the alpha = 0.001 critical values, so a correct
 * sampler fails with probability 1e-3 per (seed, case) — and the
 * seeds are pinned to passing draws. Methodology: docs/TESTING.md.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/fixed_point.hh"
#include "common/rng.hh"
#include "plane/alias_sampler.hh"
#include "prism/alloc_hitmax.hh"
#include "prism/prism_scheme.hh"

using namespace prism;

namespace
{

constexpr std::uint64_t kDraws = 100'000;

/** Chi-square critical values at alpha = 0.001, by df. */
double
chi2Critical(unsigned df)
{
    static const std::map<unsigned, double> table{
        {1, 10.828}, {2, 13.816}, {3, 16.266},  {5, 20.515},
        {7, 24.322}, {15, 37.697}, {31, 61.098}};
    const auto it = table.find(df);
    EXPECT_NE(it, table.end()) << "no critical value for df=" << df;
    return it == table.end() ? 0.0 : it->second;
}

PrismScheme
makeScheme(std::uint32_t cores, std::uint64_t seed,
           unsigned prob_bits = 0)
{
    PrismParams params;
    params.probBits = prob_bits;
    return PrismScheme(cores, std::make_unique<HitMaxPolicy>(), seed,
                       params);
}

std::vector<std::uint64_t>
sample(PrismScheme &scheme, std::uint32_t cores,
       std::uint64_t draws = kDraws)
{
    std::vector<std::uint64_t> counts(cores, 0);
    for (std::uint64_t i = 0; i < draws; ++i) {
        const CoreId c = scheme.controller().sampleVictim();
        EXPECT_LT(c, cores);
        ++counts[c];
    }
    return counts;
}

/** Goodness-of-fit statistic over the non-zero-probability bins. */
double
chi2(const std::vector<std::uint64_t> &counts,
     const std::vector<double> &expected_probs, unsigned *df)
{
    double stat = 0.0;
    unsigned bins = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (expected_probs[i] <= 0.0)
            continue;
        const double expect =
            expected_probs[i] * static_cast<double>(kDraws);
        const double diff =
            static_cast<double>(counts[i]) - expect;
        stat += diff * diff / expect;
        ++bins;
    }
    *df = bins - 1;
    return stat;
}

void
expectFits(PrismScheme &scheme, std::uint32_t cores)
{
    // Expectation is the scheme's own (possibly quantised) E, which
    // is guaranteed normalised.
    const std::vector<double> e = scheme.controller().evictionProbs();
    double sum = 0.0;
    for (const double p : e)
        sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);

    const auto counts = sample(scheme, cores);
    unsigned df = 0;
    const double stat = chi2(counts, e, &df);
    EXPECT_LT(stat, chi2Critical(df))
        << "sampled frequencies do not fit E (df=" << df << ")";
}

} // namespace

TEST(CoreSelectionStats, UniformQuad)
{
    auto scheme = makeScheme(4, 12345);
    // Freshly constructed schemes start from the uniform distribution.
    expectFits(scheme, 4);
}

TEST(CoreSelectionStats, SkewedQuad)
{
    auto scheme = makeScheme(4, 999);
    const std::vector<double> e{0.6, 0.3, 0.08, 0.02};
    scheme.controller().setEvictionProbs(e);
    // No quantisation configured.
    EXPECT_EQ(scheme.controller().evictionProbs(), e);
    expectFits(scheme, 4);
}

TEST(CoreSelectionStats, SkewedSixteen)
{
    auto scheme = makeScheme(16, 4242);
    // Heavily skewed: half the mass on core 0, geometric tail.
    std::vector<double> e(16);
    double mass = 0.5, sum = 0.0;
    for (std::size_t i = 0; i < e.size(); ++i) {
        e[i] = mass;
        sum += mass;
        mass *= 0.5;
    }
    e.back() += 1.0 - sum; // exact normalisation
    scheme.controller().setEvictionProbs(e);
    expectFits(scheme, 16);
}

TEST(CoreSelectionStats, Quantised6Bit)
{
    // With probBits = 6 the sampler must follow the *quantised*
    // distribution, not the requested one.
    auto scheme = makeScheme(4, 777, 6);
    const std::vector<double> requested{0.57, 0.31, 0.09, 0.03};
    scheme.controller().setEvictionProbs(requested);
    // Quantisation actually happened, through the same codec a
    // recompute uses (encode to 6-bit codes, renormalise).
    const FixedPointCodec codec(6);
    EXPECT_EQ(scheme.controller().evictionProbs(),
              codec.quantiseDistribution(requested));
    EXPECT_NE(scheme.controller().evictionProbs(), requested);
    expectFits(scheme, 4);
}

TEST(CoreSelectionStats, Quantised12Bit)
{
    auto scheme = makeScheme(8, 31337, 12);
    scheme.controller().setEvictionProbs(
        std::vector<double>{0.35, 0.25, 0.15, 0.10, 0.08, 0.04, 0.02,
                            0.01});
    expectFits(scheme, 8);
}

TEST(CoreSelectionStats, DegenerateCertainty)
{
    // E_i = 1: every draw must select core i, regardless of seed.
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        auto scheme = makeScheme(4, seed);
        scheme.controller().setEvictionProbs(
            std::vector<double>{0.0, 0.0, 1.0, 0.0});
        const auto counts = sample(scheme, 4, 10'000);
        EXPECT_EQ(counts[2], 10'000u);
    }
}

TEST(CoreSelectionStats, DegenerateCertaintyQuantised)
{
    // The degenerate distribution survives quantisation exactly.
    auto scheme = makeScheme(4, 5, 6);
    scheme.controller().setEvictionProbs(
        std::vector<double>{0.0, 1.0, 0.0, 0.0});
    const auto counts = sample(scheme, 4, 10'000);
    EXPECT_EQ(counts[1], 10'000u);
}

TEST(CoreSelectionStats, ZeroProbabilityNeverSampled)
{
    auto scheme = makeScheme(4, 2024);
    scheme.controller().setEvictionProbs(
        std::vector<double>{0.5, 0.0, 0.5, 0.0});
    const auto counts = sample(scheme, 4);
    EXPECT_EQ(counts[1], 0u);
    EXPECT_EQ(counts[3], 0u);
    unsigned df = 0;
    const double stat =
        chi2(counts, scheme.controller().evictionProbs(), &df);
    EXPECT_EQ(df, 1u);
    EXPECT_LT(stat, chi2Critical(df));
}

TEST(CoreSelectionStats, SeedsGiveIndependentSequences)
{
    auto a = makeScheme(4, 10);
    auto b = makeScheme(4, 11);
    std::vector<CoreId> sa, sb;
    for (int i = 0; i < 64; ++i) {
        sa.push_back(a.controller().sampleVictim());
        sb.push_back(b.controller().sampleVictim());
    }
    EXPECT_NE(sa, sb); // different seeds, different draw sequences
    auto a2 = makeScheme(4, 10);
    std::vector<CoreId> sa2;
    for (int i = 0; i < 64; ++i)
        sa2.push_back(a2.controller().sampleVictim());
    EXPECT_EQ(sa, sa2); // same seed reproduces exactly
}

// ---------------------------------------------------------------
// Alias-sampler equivalence: the O(1) guide-table Core-Selection
// must be *draw-for-draw identical* to the seed inverse-CDF walk
// (AliasSampler::inverseCdfReference), not merely statistically
// indistinguishable. docs/TESTING.md, "Hot-path equivalence".
// ---------------------------------------------------------------

namespace
{

/** Random distribution over n cores; ~1/4 of entries exactly zero. */
std::vector<double>
randomDistribution(std::uint32_t n, Rng &rng)
{
    std::vector<double> e(n);
    double sum = 0.0;
    for (auto &v : e) {
        v = rng.chance(0.25) ? 0.0 : rng.uniform();
        sum += v;
    }
    if (sum == 0.0) {
        e[rng.below(n)] = 1.0;
        return e;
    }
    for (auto &v : e)
        v /= sum;
    return e;
}

/** Hold sample(u) to the reference for a grid plus random draws. */
void
expectDrawForDraw(std::span<const double> e, Rng &rng)
{
    AliasSampler s;
    s.build(e);
    // Dense grid including the bucket boundaries b/K themselves.
    const std::uint32_t k = std::max(1u, s.buckets());
    for (std::uint32_t b = 0; b < k; ++b) {
        for (const double eps : {0.0, 1e-12, 1e-9, 1e-4}) {
            const double u = static_cast<double>(b) / k + eps;
            if (u >= 1.0)
                continue;
            ASSERT_EQ(s.sample(u),
                      AliasSampler::inverseCdfReference(e, u))
                << "u=" << u;
        }
    }
    // The top edge: draws beyond the last partial sum take the
    // rounding-residue rule.
    for (const double u :
         {0.999999999999, std::nextafter(1.0, 0.0)})
        ASSERT_EQ(s.sample(u),
                  AliasSampler::inverseCdfReference(e, u));
    for (int i = 0; i < 20'000; ++i) {
        const double u = rng.uniform();
        ASSERT_EQ(s.sample(u),
                  AliasSampler::inverseCdfReference(e, u))
            << "u=" << u;
    }
}

} // namespace

TEST(AliasEquivalence, ExhaustiveSmallN)
{
    // Every core count the small configurations use, many random
    // distributions each, grid + random draws: draw-for-draw.
    Rng rng(20260809);
    for (std::uint32_t n = 1; n <= 8; ++n)
        for (int rep = 0; rep < 25; ++rep)
            expectDrawForDraw(randomDistribution(n, rng), rng);
}

TEST(AliasEquivalence, LargeCoreCounts)
{
    Rng rng(77);
    for (const std::uint32_t n : {16u, 32u, 64u})
        for (int rep = 0; rep < 5; ++rep)
            expectDrawForDraw(randomDistribution(n, rng), rng);
}

TEST(AliasEquivalence, QuantisedDistributions)
{
    // Post-quantisation distributions are the ones the scheme
    // actually serves; 6-bit codes produce the flat, stepped shapes
    // hardest on the guide table (many equal partial sums).
    Rng rng(4096);
    for (const unsigned bits : {4u, 6u, 12u}) {
        const FixedPointCodec codec(bits);
        for (int rep = 0; rep < 10; ++rep) {
            const auto e =
                codec.quantiseDistribution(randomDistribution(8, rng));
            expectDrawForDraw(e, rng);
        }
    }
}

TEST(AliasEquivalence, UnnormalisedResidue)
{
    // Rounding can leave the partial sums short of 1; draws beyond
    // the total must take the reference's residue rule (last core
    // with non-zero probability).
    const std::vector<double> e{0.3, 0.0, 0.3, 0.2}; // sums to 0.8
    AliasSampler s;
    s.build(e);
    EXPECT_EQ(s.residueCore(), 3u);
    Rng rng(11);
    for (int i = 0; i < 10'000; ++i) {
        const double u = rng.uniform();
        ASSERT_EQ(s.sample(u),
                  AliasSampler::inverseCdfReference(e, u));
    }
    EXPECT_EQ(s.sample(0.9), 3u);
    EXPECT_EQ(s.sample(std::nextafter(1.0, 0.0)), 3u);
}

TEST(AliasEquivalence, IdenticalSeedStreams)
{
    // End to end at identical seeds: the scheme's draw stream must
    // equal a mirrored RNG run through the reference walk — the
    // sampler consumes exactly one uniform per draw and never
    // perturbs the stream, so pre-refactor behaviour reproduces.
    for (const std::uint64_t seed : {7ull, 42ull, 31337ull}) {
        auto scheme = makeScheme(8, seed);
        Rng mirror(seed);
        std::vector<double> e{0.3, 0.2, 0.15, 0.1,
                              0.1, 0.08, 0.05, 0.02};
        scheme.controller().setEvictionProbs(e);
        for (int i = 0; i < 5'000; ++i) {
            ASSERT_EQ(scheme.controller().sampleVictim(),
                      AliasSampler::inverseCdfReference(
                          e, mirror.uniform()));
            if (i == 2'500) {
                // Mid-stream recompute: table rebuilds, stream
                // continues without a discontinuity.
                e = {0.0, 0.5, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0};
                scheme.controller().setEvictionProbs(e);
            }
        }
    }
}

TEST(AliasEquivalence, SingleEligibleShortCircuit)
{
    // One core holding all mass short-circuits without touching the
    // guide table — and still matches the reference draw for draw.
    AliasSampler s;
    s.build(std::vector<double>{0.0, 0.0, 1.0, 0.0});
    EXPECT_EQ(s.singleEligible(), 2u);
    Rng rng(3);
    for (int i = 0; i < 1'000; ++i)
        ASSERT_EQ(s.sample(rng.uniform()), 2u);

    // The scheme wires the same short circuit.
    auto scheme = makeScheme(4, 9);
    scheme.controller().setEvictionProbs(
        std::vector<double>{0.0, 0.0, 0.0, 1.0});
    EXPECT_EQ(scheme.controller().sampler().singleEligible(), 3u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(scheme.controller().sampleVictim(), 3u);

    // Multi-eligible distributions must NOT short-circuit.
    scheme.controller().setEvictionProbs(
        std::vector<double>{0.5, 0.5, 0.0, 0.0});
    EXPECT_EQ(scheme.controller().sampler().singleEligible(),
              invalidCore);
}

TEST(AliasEquivalence, ChiSquareThroughGuideTable)
{
    // Statistical sanity directly on the table at 32 cores (the
    // scalability configuration): frequencies fit the distribution.
    Rng rng(123);
    std::vector<double> e(32);
    double sum = 0.0;
    for (auto &v : e) {
        v = rng.uniform() * rng.uniform();
        sum += v;
    }
    for (auto &v : e)
        v /= sum;
    AliasSampler s;
    s.build(e);
    std::vector<std::uint64_t> counts(32, 0);
    Rng draws(99);
    for (std::uint64_t i = 0; i < kDraws; ++i)
        ++counts[s.sample(draws.uniform())];
    unsigned df = 0;
    const double stat = chi2(counts, e, &df);
    EXPECT_LT(stat, chi2Critical(df));
}
