/**
 * @file
 * Unit tests for register-file copies and port mappings (Figure 4).
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "sim/checkpoint/stateio.hh"
#include "uarch/regfile.hh"

namespace tempest
{
namespace
{

TEST(RegisterFile, PriorityMappingGroupsHighPriorityAlus)
{
    RegisterFile rf(2, 6, PortMapping::Priority);
    EXPECT_EQ(rf.copyForAlu(0), 0);
    EXPECT_EQ(rf.copyForAlu(1), 0);
    EXPECT_EQ(rf.copyForAlu(2), 0);
    EXPECT_EQ(rf.copyForAlu(3), 1);
    EXPECT_EQ(rf.copyForAlu(4), 1);
    EXPECT_EQ(rf.copyForAlu(5), 1);
}

TEST(RegisterFile, BalancedMappingInterleaves)
{
    RegisterFile rf(2, 6, PortMapping::Balanced);
    EXPECT_EQ(rf.copyForAlu(0), 0);
    EXPECT_EQ(rf.copyForAlu(1), 1);
    EXPECT_EQ(rf.copyForAlu(2), 0);
    EXPECT_EQ(rf.copyForAlu(3), 1);
    EXPECT_EQ(rf.copyForAlu(4), 0);
    EXPECT_EQ(rf.copyForAlu(5), 1);
}

TEST(RegisterFile, CompletelyBalancedHasNoSingleCopy)
{
    RegisterFile rf(2, 6, PortMapping::CompletelyBalanced);
    EXPECT_THROW(rf.copyForAlu(0), FatalError);
}

TEST(RegisterFile, AlusOfCopyIsInverseOfCopyForAlu)
{
    for (PortMapping m :
         {PortMapping::Priority, PortMapping::Balanced}) {
        RegisterFile rf(2, 6, m);
        for (int c = 0; c < 2; ++c) {
            const auto alus = rf.alusOfCopy(c);
            EXPECT_EQ(alus.size(), 3u);
            for (int a : alus)
                EXPECT_EQ(rf.copyForAlu(a), c);
        }
    }
}

TEST(RegisterFile, CompletelyBalancedCopyServesAllAlus)
{
    RegisterFile rf(2, 6, PortMapping::CompletelyBalanced);
    EXPECT_EQ(rf.alusOfCopy(0).size(), 6u);
    EXPECT_EQ(rf.alusOfCopy(1).size(), 6u);
}

TEST(RegisterFile, ReadsChargeTheMappedCopy)
{
    RegisterFile rf(2, 6, PortMapping::Priority);
    ActivityRecord act;
    rf.chargeReads(0, 2, act); // ALU0 -> copy 0
    rf.chargeReads(5, 1, act); // ALU5 -> copy 1
    EXPECT_EQ(act.intRegReads[0], 2u);
    EXPECT_EQ(act.intRegReads[1], 1u);
}

TEST(RegisterFile, CompletelyBalancedSplitsReads)
{
    RegisterFile rf(2, 6, PortMapping::CompletelyBalanced);
    ActivityRecord act;
    rf.chargeReads(0, 2, act); // one read per copy
    EXPECT_EQ(act.intRegReads[0], 1u);
    EXPECT_EQ(act.intRegReads[1], 1u);
}

TEST(RegisterFile, WritesBroadcastToAllCopies)
{
    RegisterFile rf(2, 6, PortMapping::Priority);
    ActivityRecord act;
    rf.chargeWrite(act);
    rf.chargeWrite(act);
    EXPECT_EQ(act.intRegWrites[0], 2u);
    EXPECT_EQ(act.intRegWrites[1], 2u);
}

TEST(RegisterFile, ZeroReadsChargeNothing)
{
    RegisterFile rf(2, 6, PortMapping::Priority);
    ActivityRecord act;
    rf.chargeReads(3, 0, act);
    EXPECT_EQ(act.intRegReads[0], 0u);
    EXPECT_EQ(act.intRegReads[1], 0u);
}

TEST(RegisterFile, MappingSwitchableAtRuntime)
{
    RegisterFile rf(2, 6, PortMapping::Priority);
    EXPECT_EQ(rf.copyForAlu(1), 0);
    rf.setMapping(PortMapping::Balanced);
    EXPECT_EQ(rf.copyForAlu(1), 1);
}

TEST(RegisterFile, RejectsUnevenAluSplit)
{
    EXPECT_THROW(RegisterFile(2, 5, PortMapping::Priority),
                 FatalError);
}

TEST(RegisterFile, RestoreRejectsAnUnknownMapping)
{
    // chargeReads() reads a per-ALU table that only the known
    // mappings fill, so a corrupt mapping byte must not restore.
    RegisterFile rf(2, 6, PortMapping::Priority);
    StateWriter w;
    rf.saveState(w);
    std::string bytes = w.bytes();
    bytes.back() = 7;
    StateReader r(bytes);
    EXPECT_THROW(rf.loadState(r), FatalError);

    StateReader good(w.bytes());
    rf.setMapping(PortMapping::Balanced);
    rf.loadState(good);
    EXPECT_EQ(rf.mapping(), PortMapping::Priority);
    EXPECT_EQ(rf.copyForAlu(1), 0);
}

TEST(RegisterFile, MappingNames)
{
    EXPECT_STREQ(portMappingName(PortMapping::Priority),
                 "priority");
    EXPECT_STREQ(portMappingName(PortMapping::Balanced),
                 "balanced");
    EXPECT_STREQ(
        portMappingName(PortMapping::CompletelyBalanced),
        "completely-balanced");
}

} // namespace
} // namespace tempest
