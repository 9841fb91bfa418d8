/**
 * @file
 * SlidingWindow unit tests: ring retention and wrap order, missing
 * per-tenant entries, window-aggregate hit/miss/slowdown rates, E_i
 * churn, exact quantiles, and the EWMA drift statistics (seeding,
 * the update recurrence, the relative-drift floors, and survival of
 * the ring wrap) that feed the online doctor's drift checks.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "telemetry/window.hh"

using namespace prism::telemetry;

namespace
{

/** A sample whose per-tenant series are fully specified. */
IntervalSample
sampleOf(std::uint64_t interval, std::vector<std::uint64_t> hits,
         std::vector<std::uint64_t> misses,
         std::vector<double> ev_prob = {},
         std::vector<double> occupancy = {},
         std::vector<double> target = {},
         std::vector<std::uint64_t> evictions = {})
{
    IntervalSample s;
    s.interval = interval;
    s.hits = std::move(hits);
    s.misses = std::move(misses);
    s.evProb = std::move(ev_prob);
    s.occupancy = std::move(occupancy);
    s.target = std::move(target);
    s.evictions = std::move(evictions);
    return s;
}

} // namespace

TEST(SlidingWindow, EmptyWindowHasNeutralStats)
{
    const SlidingWindow win(2, 64);
    EXPECT_EQ(win.rows().size(), 0u);
    EXPECT_EQ(win.rows().recorded(), 0u);

    const TenantWindowStats s = win.stats(0);
    EXPECT_EQ(s.intervals, 0u);
    EXPECT_EQ(s.hitRatio, 1.0);
    EXPECT_EQ(s.missRate, 0.0);
    EXPECT_EQ(s.slowdown, 1.0);
    EXPECT_EQ(s.missRateDrift, 0.0);
    EXPECT_EQ(s.slowdownDrift, 0.0);
}

TEST(SlidingWindow, RetainsRowsOldestFirst)
{
    SlidingWindow win(1, 4);
    for (std::uint64_t i = 1; i <= 3; ++i)
        win.push(sampleOf(i, {10 * i}, {i}));
    ASSERT_EQ(win.rows().size(), 3u);
    EXPECT_EQ(win.rows().recorded(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(win.rows().sample(i).interval, i + 1);
        EXPECT_EQ(win.rows().sample(i).hits[0], 10 * (i + 1));
    }
}

TEST(SlidingWindow, RingWrapDropsOldestRows)
{
    SlidingWindow win(1, 3);
    for (std::uint64_t i = 1; i <= 5; ++i)
        win.push(sampleOf(i, {i}, {0}));
    ASSERT_EQ(win.rows().size(), 3u);
    EXPECT_EQ(win.rows().recorded(), 5u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(win.rows().sample(i).interval, 3 + i);
}

TEST(SlidingWindow, MissingTenantEntriesReadZero)
{
    // Two tenants, but the sample carries one entry per series and
    // no eviction row: tenant 1 must read as zero.
    SlidingWindow win(2, 64);
    win.push(sampleOf(1, {7}, {3}, {1.0}, {0.5}, {0.5}));
    EXPECT_EQ(win.stats(0).hits, 7u);
    EXPECT_EQ(win.stats(0).evictions, 0u);
    const TenantWindowStats missing = win.stats(1);
    EXPECT_EQ(missing.hits, 0u);
    EXPECT_EQ(missing.misses, 0u);
    EXPECT_EQ(missing.evictions, 0u);
    EXPECT_EQ(missing.hitRatio, 1.0);

    // A tenant index past the window's count is also neutral.
    const TenantWindowStats s = win.stats(9);
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.hitRatio, 1.0);
}

TEST(SlidingWindow, AggregateRatesFollowTheSlowdownModel)
{
    SlidingWindow win(1, 8);
    win.push(sampleOf(1, {75}, {25}, {}, {}, {}, {4}));
    win.push(sampleOf(2, {25}, {75}, {}, {}, {}, {6}));

    const TenantWindowStats s = win.stats(0);
    EXPECT_EQ(s.intervals, 2u);
    EXPECT_EQ(s.hits, 100u);
    EXPECT_EQ(s.misses, 100u);
    EXPECT_EQ(s.evictions, 10u);
    EXPECT_DOUBLE_EQ(s.hitRatio, 0.5);
    EXPECT_DOUBLE_EQ(s.missRate, 0.5);
    // slowdown = 1 + missRate * (penalty - 1)
    EXPECT_DOUBLE_EQ(s.slowdown, 1.0 + 0.5 * 24.0);
}

TEST(SlidingWindow, QuantilesAreExactWithInterpolation)
{
    SlidingWindow win(1, 8);
    // Per-interval hit ratios 0.0, 0.25, 0.5, 0.75, 1.0.
    win.push(sampleOf(1, {0}, {4}));
    win.push(sampleOf(2, {1}, {3}));
    win.push(sampleOf(3, {2}, {2}));
    win.push(sampleOf(4, {3}, {1}));
    win.push(sampleOf(5, {4}, {0}));

    const TenantWindowStats s = win.stats(0);
    EXPECT_DOUBLE_EQ(s.hitRatioP50, 0.5);
    // rank = 0.9 * 4 = 3.6 -> 0.75 + 0.6 * 0.25
    EXPECT_DOUBLE_EQ(s.hitRatioP90, 0.9);
    // Slowdowns are the mirrored series via the model.
    EXPECT_DOUBLE_EQ(s.slowdownP50, 1.0 + 0.5 * 24.0);
}

TEST(SlidingWindow, ChurnIsMeanAbsoluteEvProbStep)
{
    SlidingWindow win(1, 8);
    win.push(sampleOf(1, {1}, {1}, {0.2}));
    win.push(sampleOf(2, {1}, {1}, {0.6}));
    win.push(sampleOf(3, {1}, {1}, {0.5}));
    const TenantWindowStats s = win.stats(0);
    // (|0.6-0.2| + |0.5-0.6|) / 2
    EXPECT_DOUBLE_EQ(s.churn, (0.4 + 0.1) / 2.0);
}

TEST(SlidingWindow, EwmaSeedsOnFirstPushWithZeroDrift)
{
    SlidingWindow win(1, 4);
    win.push(sampleOf(1, {6}, {4})); // miss rate 0.4
    const TenantWindowStats s = win.stats(0);
    EXPECT_DOUBLE_EQ(s.ewmaMissRate, 0.4);
    EXPECT_EQ(s.missRateDrift, 0.0);
    EXPECT_DOUBLE_EQ(s.ewmaSlowdown, 1.0 + 0.4 * 24.0);
    EXPECT_EQ(s.slowdownDrift, 0.0);
}

TEST(SlidingWindow, EwmaRecurrenceAndRelativeDrift)
{
    SlidingWindow win(1, 4);
    win.push(sampleOf(1, {8}, {2})); // miss rate 0.2
    win.push(sampleOf(2, {4}, {6})); // miss rate 0.6

    const TenantWindowStats s = win.stats(0);
    // Drift is measured against the EWMA before the fold.
    EXPECT_DOUBLE_EQ(s.missRateDrift, (0.6 - 0.2) / 0.2);
    EXPECT_DOUBLE_EQ(s.ewmaMissRate, 0.25 * 0.6 + 0.75 * 0.2);
    const double slow1 = 1.0 + 0.2 * 24.0; // 5.8
    const double slow2 = 1.0 + 0.6 * 24.0; // 15.4
    EXPECT_DOUBLE_EQ(s.slowdownDrift, (slow2 - slow1) / slow1);
    EXPECT_DOUBLE_EQ(s.ewmaSlowdown, 0.25 * slow2 + 0.75 * slow1);
}

TEST(SlidingWindow, MissRateDriftDenominatorIsFloored)
{
    // A near-zero EWMA must not turn a small absolute step into a
    // huge relative drift: the denominator floors at 0.05.
    SlidingWindow win(1, 4);
    win.push(sampleOf(1, {100}, {0})); // miss rate 0.0
    win.push(sampleOf(2, {99}, {1}));  // miss rate 0.01
    const TenantWindowStats s = win.stats(0);
    EXPECT_DOUBLE_EQ(s.missRateDrift, 0.01 / 0.05);
}

TEST(SlidingWindow, EwmaSurvivesRingWrap)
{
    // Capacity 1 retains a single row, but drift tracks the whole
    // pushed stream (alpha = kEwmaAlpha = 0.25).
    SlidingWindow win(1, 1);
    win.push(sampleOf(1, {8}, {2})); // 0.2 -> ewma 0.2
    win.push(sampleOf(2, {6}, {4})); // 0.4 -> ewma 0.25
    win.push(sampleOf(3, {4}, {6})); // 0.6 vs ewma 0.25

    ASSERT_EQ(win.rows().size(), 1u);
    EXPECT_EQ(win.rows().sample(0).interval, 3u);
    const TenantWindowStats s = win.stats(0);
    EXPECT_DOUBLE_EQ(s.missRateDrift, (0.6 - 0.25) / 0.25);
    EXPECT_DOUBLE_EQ(s.ewmaMissRate, 0.25 * 0.6 + 0.75 * 0.25);
}

TEST(SlidingWindow, ZeroCapacityIsClampedToOne)
{
    SlidingWindow win(1, 0);
    EXPECT_EQ(win.rows().capacity(), 1u);
    win.push(sampleOf(1, {1}, {1}));
    win.push(sampleOf(2, {1}, {1}));
    EXPECT_EQ(win.rows().size(), 1u);
    EXPECT_EQ(win.rows().sample(0).interval, 2u);
}
