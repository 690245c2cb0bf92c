/**
 * @file
 * Tests for the thermal trace recorder and fetch throttling.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "common/log.hh"

#include "sim/checkpoint/stateio.hh"
#include "sim/experiment.hh"
#include "sim/trace.hh"

namespace tempest
{
namespace
{

using namespace experiments;

TEST(Trace, RecordsOneRowPerInterval)
{
    SimConfig cfg = baseConfig(FloorplanVariant::Baseline, 0.04);
    Simulator sim(cfg, spec2000("parser"));
    ThermalTrace trace(sim.floorplan());
    sim.setTrace(&trace);
    sim.run(10 * cfg.sampleIntervalCycles);
    EXPECT_EQ(trace.size(), 10u);
    const TraceSample& s = trace.sample(0);
    EXPECT_EQ(s.temperature.size(), 26u);
    EXPECT_EQ(s.power.size(), 26u);
    EXPECT_FALSE(s.stalled);
    EXPECT_GT(s.instructions, 0u);
}

TEST(Trace, StrideDownsamples)
{
    SimConfig cfg = baseConfig(FloorplanVariant::Baseline, 0.04);
    Simulator sim(cfg, spec2000("parser"));
    ThermalTrace trace(sim.floorplan(), /*stride=*/4);
    sim.setTrace(&trace);
    sim.run(16 * cfg.sampleIntervalCycles);
    EXPECT_EQ(trace.size(), 4u);
}

TEST(Trace, PeakMatchesSamples)
{
    SimConfig cfg = baseConfig(FloorplanVariant::IqConstrained,
                               0.04);
    Simulator sim(cfg, spec2000("gzip"));
    ThermalTrace trace(sim.floorplan());
    sim.setTrace(&trace);
    const SimResult r = sim.run(20 * cfg.sampleIntervalCycles);
    const int q1 = sim.floorplan().indexOf("IntQ1");
    Kelvin manual = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        manual = std::max(
            manual,
            trace.sample(i).temperature[static_cast<std::size_t>(
                q1)]);
    }
    EXPECT_DOUBLE_EQ(trace.peak(q1), manual);
    EXPECT_NEAR(trace.peak(q1), r.block("IntQ1").max, 1e-9);
}

TEST(Trace, CsvShapeAndHeader)
{
    SimConfig cfg = baseConfig(FloorplanVariant::Baseline, 0.04);
    Simulator sim(cfg, spec2000("parser"));
    ThermalTrace trace(sim.floorplan());
    sim.setTrace(&trace);
    sim.run(3 * cfg.sampleIntervalCycles);
    const std::string csv = trace.toCsv();
    EXPECT_NE(csv.find("cycle,stalled,instructions"),
              std::string::npos);
    EXPECT_NE(csv.find("T_IntQ1"), std::string::npos);
    EXPECT_NE(csv.find("P_IntExec0"), std::string::npos);
    // Header + 3 rows.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
}

/**
 * The CSV of a run through the warm start, cooling stalls and
 * their final partial chunks, pinned byte for byte
 * (TEMPEST_PRINT_GOLDENS=1 prints the hash).
 */
TEST(Trace, CsvIsPinnedByteForByte)
{
    SimConfig cfg = iqBase(0.04);
    cfg.dtm.maxTemperature -= 5.0; // stall within a few intervals
    Simulator sim(cfg, spec2000("eon"));
    ThermalTrace trace(sim.floorplan());
    sim.setTrace(&trace);
    const SimResult r = sim.run(3'000'000);
    ASSERT_GT(r.dtm.globalStalls, 0u);
    const std::string csv = trace.toCsv();
    const std::uint64_t hash = fnv1a64(csv.data(), csv.size());
    if (std::getenv("TEMPEST_PRINT_GOLDENS") != nullptr) {
        std::printf("trace csv hash 0x%016llx\n",
                    static_cast<unsigned long long>(hash));
        return;
    }
    EXPECT_EQ(hash, 0xf1b588dd1e3a4832ULL);
}

TEST(Trace, RejectsBadStride)
{
    const Floorplan fp =
        Floorplan::ev6Like(FloorplanVariant::Baseline);
    EXPECT_THROW(ThermalTrace(fp, 0), FatalError);
}

TEST(FetchThrottle, ReducesFetchRate)
{
    PipelineConfig cfg;
    OooCore full(cfg, spec2000("gzip"), 3);
    OooCore throttled(cfg, spec2000("gzip"), 3);
    throttled.setFetchInterval(4);
    ActivityRecord fa, ta;
    for (int i = 0; i < 100000; ++i) {
        full.tick(fa);
        throttled.tick(ta);
    }
    EXPECT_LT(throttled.committed(), full.committed());
    EXPECT_GT(throttled.committed(), full.committed() / 8);
    EXPECT_THROW(throttled.setFetchInterval(0), FatalError);
}

TEST(FetchThrottle, DtmEngagesNearThreshold)
{
    SimConfig cfg = iqBase(0.04);
    cfg.dtm.fetchThrottling = true;
    Simulator sim(cfg, spec2000("eon"));
    const SimResult r = sim.run(8'000'000);
    EXPECT_GT(r.dtm.fetchThrottleEvents, 0u);
}

TEST(FetchThrottle, IdleWorkloadNeverThrottled)
{
    SimConfig cfg = iqBase(0.04);
    cfg.dtm.fetchThrottling = true;
    Simulator sim(cfg, spec2000("art"));
    const SimResult r = sim.run(4'000'000);
    EXPECT_EQ(r.dtm.fetchThrottleEvents, 0u);
}

} // namespace
} // namespace tempest
