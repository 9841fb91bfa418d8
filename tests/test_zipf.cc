/**
 * @file
 * Shared skewed-popularity samplers (common/zipf.hh).
 *
 * The serving load generator and the simulator's trace generator
 * both draw from this header now; these tests pin the draw streams
 * to recorded constants so any numeric drift — a refactor, a
 * compiler "optimisation" of the Hörmann-Derflinger helpers, a
 * table-size change — fails loudly instead of silently invalidating
 * every serve determinism golden and trace fixture at once.
 */

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/zipf.hh"
#include "workload/stack_dist_generator.hh"

namespace prism
{
namespace
{

TEST(ZipfShared, DrawStreamMatchesRecordedConstants)
{
    // First 16 ranks of ZipfGenerator(1e6, 0.99) under Rng(12345),
    // recorded from the pre-dedup serving sampler. Byte-identical
    // streams are what keep the serve determinism suite's goldens
    // valid across the extraction to common/.
    const std::uint64_t expected[] = {
        26,     171921, 0,  521589, 433, 866398, 114445, 17406,
        4897,   1,      14, 562,    5,   0,      158587, 3,
    };
    ZipfGenerator zipf(1000000, 0.99);
    Rng rng(12345);
    for (const std::uint64_t want : expected)
        EXPECT_EQ(zipf.next(rng), want);
}

TEST(ZipfShared, UniformExponentStreamMatchesRecordedConstants)
{
    const std::uint64_t expected[] = {
        3, 63, 8, 23, 1, 48, 16, 35, 9, 29, 50, 5, 54, 50, 32, 61,
    };
    ZipfGenerator zipf(64, 0.0);
    Rng rng(777);
    for (const std::uint64_t want : expected)
        EXPECT_EQ(zipf.next(rng), want);
}

TEST(ZipfShared, SameSeedSameStream)
{
    ZipfGenerator zipf(4096, 0.8);
    Rng a(99), b(99);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(zipf.next(a), zipf.next(b));
}

TEST(PowerLawTable, MatchesRecordedConstants)
{
    // fraction() at fixed points for theta 0.7 (the default stream
    // locality), recorded from the pre-extraction private table in
    // StackDistGenerator. Exact equality: the tabulation and the
    // interpolation must stay the byte-identical computation.
    const double u[] = {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 1.0};
    const double expected[] = {
        0.0,
        0.03727595352823776,
        0.13801118920922653,
        0.37149857228423711,
        0.66300391143270965,
        0.86026481134637844,
        0.99857173633666318,
        1.0,
    };
    PowerLawTable table(0.7);
    for (std::size_t i = 0; i < std::size(u); ++i)
        EXPECT_EQ(table.fraction(u[i]), expected[i]);
}

TEST(PowerLawTable, TracksTheAnalyticInverseCdf)
{
    // The table is a 4096-point piecewise-linear approximation of
    // u^(1/theta); it should stay within interpolation error of the
    // analytic law everywhere that law is smooth.
    for (const double theta : {0.3, 0.7, 1.0, 2.5}) {
        PowerLawTable table(theta);
        for (int i = 1; i <= 1000; ++i) {
            const double u = static_cast<double>(i) / 1000.0;
            const double exact = std::pow(u, 1.0 / theta);
            EXPECT_NEAR(table.fraction(u), exact, 2e-3)
                << "theta " << theta << " u " << u;
        }
    }
}

TEST(PowerLawTable, StackDistStreamUnchangedByExtraction)
{
    // The trace generator's whole access stream is a function of the
    // distance draws; two generators with identical parameters and
    // seeds must agree access-for-access (the trace goldens depend
    // on it transitively).
    StackDistParams params;
    params.workingSetBlocks = 1 << 10;
    params.theta = 0.7;
    params.coldFrac = 0.05;
    StackDistGenerator a(0, params, 4242), b(0, params, 4242);
    for (int i = 0; i < 20000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

// The registry tests use exponents no other test in this binary
// holds, so each table's lifetime is the test's own.

TEST(PowerLawTableShared, EqualThetaSharesOneTable)
{
    const auto a = PowerLawTable::shared(0.6180339);
    const auto b = PowerLawTable::shared(0.6180339);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(a.use_count(), 2);

    const auto other = PowerLawTable::shared(0.6180340);
    EXPECT_NE(other.get(), a.get());
}

TEST(PowerLawTableShared, ReleasedWithItsLastHolder)
{
    auto holder = PowerLawTable::shared(0.4142136);
    const std::weak_ptr<const PowerLawTable> seen = holder;
    auto second = holder;
    holder.reset();
    EXPECT_FALSE(seen.expired());
    second.reset();
    EXPECT_TRUE(seen.expired());

    // The next request builds a fresh table with the same values.
    const auto rebuilt = PowerLawTable::shared(0.4142136);
    EXPECT_EQ(rebuilt.use_count(), 1);
    EXPECT_EQ(rebuilt->fraction(0.5),
              PowerLawTable(0.4142136).fraction(0.5));
}

TEST(PowerLawTableShared, MatchesAPrivateTableBitForBit)
{
    for (const double theta : {0.2718281, 0.7071067, 1.7320508}) {
        const auto shared = PowerLawTable::shared(theta);
        const PowerLawTable own(theta);
        for (int i = 0; i <= 1 << 16; ++i) {
            const double u = static_cast<double>(i) / (1 << 16);
            const double x = shared->fraction(u);
            const double y = own.fraction(u);
            ASSERT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
                << "theta " << theta << " u " << u;
        }
    }
}

TEST(PowerLawTableShared, GeneratorsWithOneThetaHoldOneTable)
{
    StackDistParams params;
    params.workingSetBlocks = 1 << 10;
    params.theta = 0.5772156;
    const auto table = PowerLawTable::shared(params.theta);
    {
        StackDistGenerator a(0, params, 1), b(1, params, 2);
        EXPECT_EQ(table.use_count(), 3);
    }
    EXPECT_EQ(table.use_count(), 1);
}

TEST(PowerLawTableShared, ConcurrentRequestsGetOneTable)
{
    const auto held = PowerLawTable::shared(0.3010299);
    std::vector<const PowerLawTable *> got(4, nullptr);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < got.size(); ++t)
        threads.emplace_back([&got, t] {
            for (int i = 0; i < 200; ++i) {
                const auto mine = PowerLawTable::shared(0.3010299);
                got[t] = mine.get();
            }
        });
    for (std::thread &th : threads)
        th.join();
    for (const PowerLawTable *p : got)
        EXPECT_EQ(p, held.get());
}

} // namespace
} // namespace prism
