/**
 * @file
 * Step-loop golden: whole System runs, compared byte for byte with
 * committed prism-stats-v1 documents (tests/golden/STATS_steploop.json,
 * the runs' documents one after another).
 *
 * The runs cover the scheduler's widest and narrowest cases: suite
 * mix T1 on MachineConfig::forCores(32) under PriSM-H (16 MB, 64-way
 * LLC, full sets, victim walks and interval recomputes), a 5-core mix
 * under LRU (a core count that is not a power of two), and a
 * stand-alone 1-core run. The order in which System::run steps its
 * cores decides the interleaving of every core's accesses at the LLC
 * and the memory controllers, so a tie or padding slip in the core
 * scheduler, or a look-ahead access drawn out of order, changes the
 * cycle, hit and queue counts recorded here.
 *
 * Regenerate after an intentional behaviour change with
 *   PRISM_UPDATE_GOLDEN=1 build/tests/test_step_loop_golden
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/runner.hh"

using namespace prism;

namespace
{

#ifndef PRISM_STEPLOOP_GOLDEN_DEFAULT
#define PRISM_STEPLOOP_GOLDEN_DEFAULT "../tests/golden/STATS_steploop.json"
#endif

/** The prism-stats-v1 document of one run of @p w under @p kind. */
std::string
statsOf(const MachineConfig &m, const Workload &w, SchemeKind kind)
{
    std::ostringstream stats;
    SchemeOptions options;
    options.statsJsonSink = &stats;
    Runner(m).run(w, kind, options);
    return stats.str() + "\n";
}

MachineConfig
budget(MachineConfig m)
{
    m.instrBudget = 40'000;
    m.warmupInstr = 10'000;
    return m;
}

/** Every run's document, in the golden's order. */
std::string
produced()
{
    Workload t1;
    EXPECT_TRUE(suites::find("T1", t1));
    std::string out =
        statsOf(budget(MachineConfig::forCores(32)), t1,
                SchemeKind::PrismH);

    MachineConfig five = budget(MachineConfig::forCores(4));
    five.numCores = 5;
    out += statsOf(five,
                   Workload{"mix5",
                            {"429.mcf", "179.art", "470.lbm", "403.gcc",
                             "186.crafty"}},
                   SchemeKind::Baseline);

    MachineConfig solo = budget(MachineConfig::forCores(32));
    solo.numCores = 1;
    out += statsOf(solo, Workload{"solo", {"429.mcf"}},
                   SchemeKind::Baseline);
    return out;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** First line at which the two texts differ, for a readable diff. */
std::string
firstDiff(const std::string &a, const std::string &b)
{
    std::istringstream sa(a), sb(b);
    std::string la, lb;
    for (int line = 1;; ++line) {
        const bool ga = static_cast<bool>(std::getline(sa, la));
        const bool gb = static_cast<bool>(std::getline(sb, lb));
        if (!ga && !gb)
            return "no difference";
        if (la != lb || ga != gb)
            return "line " + std::to_string(line) + ": golden '" +
                   la + "' vs produced '" + lb + "'";
    }
}

} // namespace

TEST(StepLoopGolden, RunsReproduceTheCommittedStats)
{
    const std::string path = PRISM_STEPLOOP_GOLDEN_DEFAULT;
    const std::string now = produced();
    if (std::getenv("PRISM_UPDATE_GOLDEN")) {
        std::ofstream g(path, std::ios::binary);
        ASSERT_TRUE(g.is_open()) << path;
        g << now;
        GTEST_SKIP() << "golden updated";
    }
    const std::string golden = slurp(path);
    ASSERT_FALSE(golden.empty()) << "cannot read " << path;
    // Compared as one bool: the documents are too long to print.
    EXPECT_TRUE(golden == now)
        << "step-loop stats drifted from the committed golden ("
        << firstDiff(golden, now)
        << "); regenerate with PRISM_UPDATE_GOLDEN=1 if the "
           "behaviour change is intentional";
}
