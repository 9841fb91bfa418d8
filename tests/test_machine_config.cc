/**
 * @file
 * Tests for MachineConfig::validate(): the paper configurations must
 * pass clean, and every class of misconfiguration must be reported
 * with an actionable message (instead of a crash deep inside cache
 * construction).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/machine_config.hh"

using namespace prism;

namespace
{

bool
mentions(const std::vector<std::string> &errors, const std::string &what)
{
    for (const std::string &e : errors)
        if (e.find(what) != std::string::npos)
            return true;
    return false;
}

} // namespace

TEST(MachineConfigValidate, DefaultsAreValid)
{
    EXPECT_TRUE(MachineConfig{}.validate().empty());
}

TEST(MachineConfigValidate, PaperMachinesAreValid)
{
    for (std::uint32_t cores : {4u, 8u, 16u, 32u}) {
        const auto errors = MachineConfig::forCores(cores).validate();
        EXPECT_TRUE(errors.empty())
            << cores << " cores: " << errors.front();
    }
}

TEST(MachineConfigValidate, ZeroCores)
{
    MachineConfig m;
    m.numCores = 0;
    EXPECT_TRUE(mentions(m.validate(), "numCores"));
}

TEST(MachineConfigValidate, CoreCountLimitedByOwnerBytes)
{
    MachineConfig m = MachineConfig::forCores(32);
    m.numCores = 256;
    EXPECT_TRUE(mentions(m.validate(), "at most 255"));
    m.numCores = 255;
    EXPECT_TRUE(m.validate().empty());
}

TEST(MachineConfigValidate, ZeroWays)
{
    MachineConfig m;
    m.llcWays = 0;
    EXPECT_TRUE(mentions(m.validate(), "llcWays"));
}

TEST(MachineConfigValidate, NonPowerOfTwoBlockBytes)
{
    MachineConfig m;
    m.blockBytes = 48;
    EXPECT_TRUE(mentions(m.validate(), "power of two"));
}

TEST(MachineConfigValidate, IndivisibleLlcBytes)
{
    MachineConfig m;
    m.llcBytes = (4ull << 20) + 100;
    EXPECT_TRUE(mentions(m.validate(), "llcBytes"));
}

TEST(MachineConfigValidate, NonPowerOfTwoSetCount)
{
    MachineConfig m;
    m.llcBytes = 3ull << 20; // 3072 sets at 16 ways / 64B blocks
    EXPECT_TRUE(mentions(m.validate(), "set count"));
}

TEST(MachineConfigValidate, ZeroLlcBytes)
{
    MachineConfig m;
    m.llcBytes = 0;
    EXPECT_TRUE(mentions(m.validate(), "llcBytes"));
}

TEST(MachineConfigValidate, BadL1Geometry)
{
    MachineConfig m;
    m.l1Ways = 0;
    EXPECT_TRUE(mentions(m.validate(), "l1Ways"));

    MachineConfig m2;
    m2.l1Bytes = (64ull << 10) + 64;
    EXPECT_TRUE(mentions(m2.validate(), "l1Bytes") ||
                mentions(m2.validate(), "L1 set count"));
}

TEST(MachineConfigValidate, ZeroInstrBudget)
{
    MachineConfig m;
    m.instrBudget = 0;
    const auto errors = m.validate();
    EXPECT_TRUE(mentions(errors, "instrBudget"));
    // warmupInstr (500k default) >= instrBudget is also reported.
    EXPECT_TRUE(mentions(errors, "warmupInstr"));
}

TEST(MachineConfigValidate, WarmupNotBelowBudget)
{
    MachineConfig m;
    m.warmupInstr = m.instrBudget;
    EXPECT_TRUE(mentions(m.validate(), "warmupInstr"));
    m.warmupInstr = m.instrBudget + 1;
    EXPECT_TRUE(mentions(m.validate(), "warmupInstr"));
    m.warmupInstr = m.instrBudget - 1;
    EXPECT_TRUE(m.validate().empty());
}

TEST(MachineConfigValidate, AccumulatesMultipleErrors)
{
    MachineConfig m;
    m.numCores = 0;
    m.llcWays = 0;
    m.blockBytes = 48;
    m.instrBudget = 0;
    const auto errors = m.validate();
    EXPECT_GE(errors.size(), 4u);
}
