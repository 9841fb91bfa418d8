/**
 * @file
 * Tests for the K-bit fixed-point probability codec (Figure 12's
 * hardware representation).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/fixed_point.hh"

using namespace prism;

TEST(FixedPoint, RoundTripEndpoints)
{
    for (unsigned bits : {1u, 6u, 8u, 10u, 12u}) {
        FixedPointCodec codec(bits);
        EXPECT_EQ(codec.encode(0.0), 0u);
        EXPECT_EQ(codec.encode(1.0), codec.maxCode());
        EXPECT_DOUBLE_EQ(codec.quantise(0.0), 0.0);
        EXPECT_DOUBLE_EQ(codec.quantise(1.0), 1.0);
    }
}

TEST(FixedPoint, ClampsOutOfRange)
{
    FixedPointCodec codec(6);
    EXPECT_EQ(codec.encode(-0.5), 0u);
    EXPECT_EQ(codec.encode(1.5), codec.maxCode());
}

/** Quantisation error is bounded by half a ULP of the representation. */
class FixedPointBits : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FixedPointBits, ErrorBounded)
{
    const unsigned bits = GetParam();
    FixedPointCodec codec(bits);
    const double ulp = 1.0 / ((1u << bits) - 1u);
    for (int i = 0; i <= 1000; ++i) {
        const double p = i / 1000.0;
        EXPECT_NEAR(codec.quantise(p), p, ulp / 2 + 1e-12);
    }
}

TEST_P(FixedPointBits, MonotoneEncoding)
{
    FixedPointCodec codec(GetParam());
    std::uint32_t prev = 0;
    for (int i = 0; i <= 1000; ++i) {
        const std::uint32_t code = codec.encode(i / 1000.0);
        EXPECT_GE(code, prev);
        prev = code;
    }
}

INSTANTIATE_TEST_SUITE_P(Bits, FixedPointBits,
                         ::testing::Values(4u, 6u, 8u, 10u, 12u, 16u));

TEST(FixedPoint, DistributionStaysNormalised)
{
    FixedPointCodec codec(6);
    const std::vector<double> dist{0.05, 0.15, 0.30, 0.50};
    const auto q = codec.quantiseDistribution(dist);
    double sum = 0.0;
    for (double v : q)
        sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-12);
    // Quantisation should not reorder the entries.
    for (std::size_t i = 1; i < q.size(); ++i)
        EXPECT_GE(q[i], q[i - 1]);
}

TEST(FixedPoint, DistributionAllZeroFallsBack)
{
    FixedPointCodec codec(6);
    const std::vector<double> dist{1e-9, 1e-9};
    const auto q = codec.quantiseDistribution(dist);
    // Every entry quantised to zero: input returned unchanged.
    EXPECT_DOUBLE_EQ(q[0], 1e-9);
    EXPECT_DOUBLE_EQ(q[1], 1e-9);
}

TEST(FixedPoint, SixBitsCloseToFloat)
{
    // The paper's claim: 6 bits is enough. Check a typical 16-core
    // distribution survives with small relative error.
    FixedPointCodec codec(6);
    std::vector<double> dist(16);
    for (int i = 0; i < 16; ++i)
        dist[i] = (i + 1);
    double sum = 0;
    for (double &v : dist)
        sum += v;
    for (double &v : dist)
        v /= sum;
    const auto q = codec.quantiseDistribution(dist);
    for (int i = 0; i < 16; ++i)
        EXPECT_NEAR(q[i], dist[i], 0.02);
}

TEST(FixedPointDeathTest, OutOfRangeBitsAreFatalBeforeTheShift)
{
    // 2^K - 1 needs K <= 31 in 32 bits; the range check runs before
    // the shift, which is undefined from K = 32 on.
    for (unsigned bits : {0u, 32u, 40u})
        EXPECT_EXIT(FixedPointCodec{bits},
                    testing::ExitedWithCode(1), "bits out of range")
            << bits;
}
