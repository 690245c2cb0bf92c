/**
 * @file
 * Unit and property tests for the cache model.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "common/rng.hh"
#include "uarch/activity.hh"
#include "uarch/cache.hh"

namespace tempest
{
namespace
{

TEST(Cache, GeometryFromSizeWaysLine)
{
    Cache c(64 * 1024, 4, 64);
    EXPECT_EQ(c.sets(), 256);
    EXPECT_EQ(c.ways(), 4);
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_THROW(Cache(1000, 3, 64), FatalError);
    EXPECT_THROW(Cache(64 * 1024, 0, 64), FatalError);
    EXPECT_THROW(Cache(3 * 2 * 64, 2, 64), FatalError); // 3 sets
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(1024, 2, 64);
    EXPECT_FALSE(c.access(42));
    EXPECT_TRUE(c.access(42));
    EXPECT_EQ(c.accesses(), 2u);
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_DOUBLE_EQ(c.missRate(), 0.5);
}

TEST(Cache, ProbeDoesNotFill)
{
    Cache c(1024, 2, 64);
    EXPECT_FALSE(c.probe(7));
    EXPECT_FALSE(c.access(7)); // still a miss: probe did not fill
    EXPECT_TRUE(c.probe(7));
}

TEST(Cache, LruEvictsOldest)
{
    // 2-way, pick lines mapping to the same set: addr, addr+sets,
    // addr+2*sets share set (index = line % sets).
    Cache c(2 * 8 * 64, 2, 64); // 8 sets, 2 ways
    const std::uint64_t s = 8;
    EXPECT_FALSE(c.access(3));
    EXPECT_FALSE(c.access(3 + s));
    EXPECT_TRUE(c.access(3));         // touch 3: now 3+s is LRU
    EXPECT_FALSE(c.access(3 + 2 * s)); // evicts 3+s
    EXPECT_TRUE(c.access(3));          // 3 survives
    EXPECT_FALSE(c.access(3 + s));     // 3+s was evicted
}

TEST(Cache, FlushInvalidatesEverything)
{
    Cache c(1024, 2, 64);
    c.access(1);
    c.access(2);
    c.flush();
    EXPECT_FALSE(c.access(1));
    EXPECT_FALSE(c.access(2));
}

TEST(Cache, WorkingSetWithinCapacityAlwaysHitsAfterWarmup)
{
    // Property: a working set no larger than capacity, accessed
    // round-robin, never misses after the first pass (true LRU).
    Cache c(64 * 64, 4, 64); // 64 lines capacity, 16 sets
    for (int pass = 0; pass < 3; ++pass) {
        for (std::uint64_t line = 0; line < 64; ++line)
            c.access(line);
    }
    EXPECT_EQ(c.misses(), 64u);
}

TEST(Cache, ThrashingSetMissesEveryTime)
{
    // Property: cycling W+1 lines through one set of a W-way cache
    // with LRU misses on every access after warmup.
    Cache c(2 * 8 * 64, 2, 64); // 8 sets, 2 ways
    const std::uint64_t s = 8;
    for (int round = 0; round < 20; ++round) {
        for (int k = 0; k < 3; ++k)
            c.access(1 + k * s);
    }
    EXPECT_EQ(c.misses(), c.accesses());
}

TEST(Cache, StatsReset)
{
    Cache c(1024, 2, 64);
    c.access(1);
    c.resetStats();
    EXPECT_EQ(c.accesses(), 0u);
    EXPECT_EQ(c.misses(), 0u);
    EXPECT_TRUE(c.access(1)); // contents survive a stats reset
}

TEST(DataHierarchy, LatenciesMatchTable2)
{
    PipelineConfig cfg;
    DataHierarchy h(cfg);
    EXPECT_EQ(h.latency(MemLevel::L1), 2);
    EXPECT_EQ(h.latency(MemLevel::L2), 14);
    EXPECT_EQ(h.latency(MemLevel::Memory), 250);
}

TEST(DataHierarchy, LevelsFillDownward)
{
    PipelineConfig cfg;
    DataHierarchy h(cfg);
    ActivityRecord act;
    EXPECT_EQ(h.access(99, act), MemLevel::Memory);
    // Second access hits L1 (filled on the way in).
    EXPECT_EQ(h.access(99, act), MemLevel::L1);
    EXPECT_EQ(act.l1dAccesses, 2u);
    EXPECT_EQ(act.l2Accesses, 1u);
}

TEST(DataHierarchy, L2HoldsWhatL1Evicts)
{
    PipelineConfig cfg;
    DataHierarchy h(cfg);
    ActivityRecord act;
    // Fill far beyond L1 (1024 lines) but within L2 (32768 lines).
    for (std::uint64_t line = 0; line < 8192; ++line)
        h.access(line, act);
    // Early lines were evicted from L1 but still sit in L2.
    EXPECT_EQ(h.access(0, act), MemLevel::L2);
}

TEST(DataHierarchy, RandomStreamMissRatesAreConsistent)
{
    // Property: for a uniform random stream over a span far larger
    // than L1 but within L2, the measured L1 miss rate approaches
    // 1 - capacity/span and the L2 miss rate falls after warmup.
    PipelineConfig cfg;
    DataHierarchy h(cfg);
    ActivityRecord act;
    Rng rng(3);
    const std::uint64_t span = 4096; // 4x L1 capacity in lines
    for (int i = 0; i < 200000; ++i)
        h.access(rng.below(span), act);
    const double l1_miss = h.l1().missRate();
    EXPECT_GT(l1_miss, 0.5);
    EXPECT_LT(l1_miss, 0.95);
    EXPECT_LT(h.l2().missRate(), 0.05); // span fits L2
}

} // namespace
} // namespace tempest
