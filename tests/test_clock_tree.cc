/**
 * @file
 * ClockTree against the linear scan it replaced in System::run: the
 * same pick (lowest clock, lowest index on ties) after every update,
 * over random clock moves with many forced ties, at core counts on
 * both sides of each power of two.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "sim/clock_tree.hh"

using namespace prism;

namespace
{

/** System::run's former next-core scan, verbatim. */
CoreId
scanPick(const std::vector<double> &clock)
{
    CoreId next = 0;
    double best = -1.0;
    for (CoreId i = 0; i < clock.size(); ++i) {
        if (best < 0.0 || clock[i] < best) {
            best = clock[i];
            next = i;
        }
    }
    return next;
}

class ClockTreeVsScan : public ::testing::TestWithParam<unsigned>
{
};

} // namespace

TEST_P(ClockTreeVsScan, SamePickAfterEveryUpdate)
{
    const unsigned n = GetParam();
    Rng rng(0xC10C7EE5ULL + n);
    // Every clock starts tied at zero, as System's cores do.
    std::vector<double> clock(n, 0.0);
    ClockTree tree(clock);
    ASSERT_EQ(tree.next(), scanPick(clock));

    for (int step = 0; step < 20'000; ++step) {
        // Mostly advance the picked core, as the simulator does; now
        // and then move any core, and often onto another core's
        // clock, so that ties keep forming at every tree level.
        CoreId core = tree.next();
        if (rng.chance(0.25))
            core = static_cast<CoreId>(rng.below(n));
        switch (rng.below(4)) {
          case 0: // a tie with a random core (itself when n == 1)
            clock[core] = clock[rng.below(n)];
            break;
          case 1: // a zero-length step
            break;
          default: // small integral steps collide often
            clock[core] += static_cast<double>(rng.between(1, 3));
            break;
        }
        tree.update(core, clock[core]);
        ASSERT_EQ(tree.next(), scanPick(clock))
            << "n=" << n << " step " << step << " moved core " << core;
    }
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, ClockTreeVsScan,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 31u, 32u,
                                           33u));
