/**
 * @file
 * Tests for the per-stage cycle profiler (common/profiler.hh).
 *
 * The library builds with TEMPEST_PROFILE off, so the simulator's
 * own instrumentation points are compiled out here; this TU defines
 * the macro itself to get the real Profiler/ScopedStageTimer
 * implementation (the class only exists under the macro, so there
 * is no ODR clash with the uninstrumented library). The "workload"
 * is a short real simulation chopped into slices, each slice
 * attributed to one ProfStage, which exercises the accumulators
 * with genuinely nonzero tick counts instead of hand-fed values.
 */

#define TEMPEST_PROFILE 1

#include "common/profiler.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "workload/profile.hh"

namespace tempest
{
namespace
{

using namespace experiments;

constexpr int kNumStages = static_cast<int>(ProfStage::NumStages);

/** Run a short simulation, attributing successive interval slices
 * round-robin to every profiled stage. With `scoped` false the
 * slices run outside the test's scopes, so the table holds only
 * what the library's own instrumentation counted: nothing, unless
 * the library was built with TEMPEST_PROFILE=ON. */
void
runProfiledSim(bool scoped = true)
{
    Profiler::instance().reset();
    Simulator sim(baseConfig(FloorplanVariant::Baseline, 0.04),
                  spec2000("parser"));
    for (int slice = 0; slice < 4 * kNumStages; ++slice) {
        if (!scoped) {
            sim.run(5000);
            continue;
        }
        const auto stage =
            static_cast<ProfStage>(slice % kNumStages);
        TEMPEST_PROF_SCOPE(stage);
        sim.run(5000);
    }
}

struct ReportRow
{
    char name[32];
    unsigned long long ticks;
    double share;
    unsigned long long calls;
    double ticksPerCall;
};

/** Render the report into a temp file and parse it back. */
int
parseReport(ReportRow rows[kNumStages])
{
    std::FILE* f = std::tmpfile();
    EXPECT_NE(f, nullptr);
    Profiler::instance().report(f);
    std::rewind(f);
    char line[256];
    int n = 0;
    bool header = true;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (header) { // column titles
            header = false;
            continue;
        }
        ReportRow& r = rows[n];
        if (std::sscanf(line, "%31s %llu %lf%% %llu %lf", r.name,
                        &r.ticks, &r.share, &r.calls,
                        &r.ticksPerCall) == 5 &&
            n < kNumStages) {
            ++n;
        }
    }
    std::fclose(f);
    return n;
}

TEST(StageProfiler, EveryStageAccumulatesNonzeroTicks)
{
    // The library's own scopes count too in a TEMPEST_PROFILE=ON
    // build; the simulation is deterministic, so an unscoped run
    // measures exactly what they add.
    runProfiledSim(/*scoped=*/false);
    ReportRow lib[kNumStages];
    const int lib_n = parseReport(lib);
    unsigned long long lib_calls[kNumStages] = {};
    for (int r = 0; r < lib_n; ++r) {
        for (int i = 0; i < kNumStages; ++i) {
            if (std::strcmp(lib[r].name,
                            profStageName(static_cast<ProfStage>(i))) ==
                0)
                lib_calls[i] = lib[r].calls;
        }
    }

    runProfiledSim();
    ReportRow rows[kNumStages];
    const int n = parseReport(rows);
    // Every stage got slices, so every stage must report.
    ASSERT_EQ(n, kNumStages);
    for (int i = 0; i < n; ++i) {
        EXPECT_GT(rows[i].ticks, 0u) << rows[i].name;
        EXPECT_EQ(rows[i].calls, 4u + lib_calls[i]) << rows[i].name;
        EXPECT_GT(rows[i].ticksPerCall, 0.0) << rows[i].name;
    }
}

TEST(StageProfiler, ReportRowsFollowStageOrder)
{
    runProfiledSim();
    ReportRow rows[kNumStages];
    const int n = parseReport(rows);
    ASSERT_EQ(n, kNumStages);
    for (int i = 0; i < n; ++i) {
        EXPECT_STREQ(rows[i].name, profStageName(
                         static_cast<ProfStage>(i)));
    }
}

TEST(StageProfiler, SharesSumToOneHundredPercent)
{
    runProfiledSim();
    ReportRow rows[kNumStages];
    const int n = parseReport(rows);
    ASSERT_EQ(n, kNumStages);
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += rows[i].share;
    // Each printed share is rounded to 0.01%, so the sum can drift
    // by half an ulp per row.
    EXPECT_NEAR(sum, 100.0, 0.01 * kNumStages);
}

TEST(StageProfiler, ResetZeroesTheTable)
{
    runProfiledSim();
    Profiler::instance().reset();
    ReportRow rows[kNumStages];
    // Zero-call stages are skipped, so a reset table prints no
    // rows at all.
    EXPECT_EQ(parseReport(rows), 0);
}

TEST(StageProfiler, SkippedCyclesCountApartFromTheStages)
{
    Profiler::instance().reset();
    TEMPEST_PROF_SKIPPED(5);
    TEMPEST_PROF_SKIPPED(7);
    EXPECT_EQ(Profiler::instance().skipped(), 12u);
    ReportRow rows[kNumStages];
    EXPECT_EQ(parseReport(rows), 0); // no stage was charged
    Profiler::instance().reset();
    EXPECT_EQ(Profiler::instance().skipped(), 0u);
}

TEST(StageProfiler, ScopedTimerChargesItsStageOnly)
{
    Profiler::instance().reset();
    {
        TEMPEST_PROF_SCOPE(ProfStage::Thermal);
        volatile unsigned sink = 0;
        for (unsigned i = 0; i < 100000; ++i)
            sink = sink + i;
    }
    ReportRow rows[kNumStages];
    const int n = parseReport(rows);
    ASSERT_EQ(n, 1);
    EXPECT_STREQ(rows[0].name,
                 profStageName(ProfStage::Thermal));
    EXPECT_EQ(rows[0].calls, 1u);
    EXPECT_GT(rows[0].ticks, 0u);
    Profiler::instance().reset();
}

} // namespace
} // namespace tempest
