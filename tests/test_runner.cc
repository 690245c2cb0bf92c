/**
 * @file
 * Tests for the job executor's thread backend: deterministic seed
 * derivation, bit-identical serial/parallel results at several
 * thread counts, per-job error capture, and the sweep builder's
 * order. CI's ThreadSanitizer job runs this binary.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/log.hh"

#include "sim/experiment.hh"
#include "sim/runner.hh"

namespace tempest
{
namespace
{

using namespace experiments;

constexpr std::uint64_t kCycles = 1'000'000;

/** A small but representative sweep: a stalling benchmark and a
 * cool one under two configurations. */
std::vector<Job>
smallSweep(std::uint64_t base_seed)
{
    return sweepJobs({{"base", iqBase()}, {"toggling", iqToggling()}},
                     {"eon", "art"}, kCycles, base_seed);
}

/** Bit-identical comparison (EXPECT_EQ on doubles is exact). */
void
expectIdentical(const SimResult& a, const SimResult& b)
{
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.stallCycles, b.stallCycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.dtm.globalStalls, b.dtm.globalStalls);
    EXPECT_EQ(a.dtm.iqToggles, b.dtm.iqToggles);
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    for (std::size_t i = 0; i < a.blocks.size(); ++i) {
        EXPECT_EQ(a.blocks[i].name, b.blocks[i].name);
        EXPECT_EQ(a.blocks[i].avg, b.blocks[i].avg) << a.blocks[i].name;
        EXPECT_EQ(a.blocks[i].max, b.blocks[i].max) << a.blocks[i].name;
    }
}

TEST(DeriveRunSeed, StableAndSensitiveToEveryComponent)
{
    const std::uint64_t s = deriveRunSeed(1, "eon", "base");
    EXPECT_EQ(s, deriveRunSeed(1, "eon", "base"));
    EXPECT_NE(s, deriveRunSeed(2, "eon", "base"));
    EXPECT_NE(s, deriveRunSeed(1, "art", "base"));
    EXPECT_NE(s, deriveRunSeed(1, "eon", "toggling"));
    // The separator keeps (benchmark, tag) concatenations apart.
    EXPECT_NE(deriveRunSeed(1, "ab", "c"),
              deriveRunSeed(1, "a", "bc"));
}

/**
 * Hard-coded goldens: deriveRunSeed is part of the experiment
 * identity (a (baseSeed, benchmark, tag) triple names the same
 * simulation forever), so its values must never drift across
 * refactors, platforms, or library versions. Re-deriving these is
 * a breaking change to every recorded result and checkpoint.
 */
TEST(DeriveRunSeed, GoldenValues)
{
    struct SeedGolden
    {
        std::uint64_t base;
        const char* benchmark;
        const char* tag;
        std::uint64_t seed;
    };
    constexpr SeedGolden kSeedGoldens[] = {
        {1ULL, "art", "iq_base", 0x6fc8a890a2e1b61aULL},
        {1ULL, "mesa", "warmup", 0xec7fe97c80456028ULL},
        {1ULL, "eon", "base", 0x386a22ba51a8050eULL},
        {7ULL, "facerec", "toggling", 0x53e444de671b00aeULL},
        {42ULL, "gzip", "alu_turnoff", 0xbdab593c41dff752ULL},
        {3735928559ULL, "equake", "regfile_balanced",
         0x9cb02942abe8f8b0ULL},
    };
    for (const SeedGolden& g : kSeedGoldens) {
        EXPECT_EQ(deriveRunSeed(g.base, g.benchmark, g.tag),
                  g.seed)
            << g.base << "/" << g.benchmark << "/" << g.tag;
    }
}

TEST(Runner, SerialAndParallelAreBitIdentical)
{
    const std::vector<Job> jobs = smallSweep(7);

    // Serial reference: one job after another on this thread.
    std::vector<Outcome> serial;
    for (const Job& job : jobs)
        serial.push_back(runJob(job));
    for (const Outcome& o : serial)
        ASSERT_TRUE(o.ok) << o.error;

    for (const int threads : {1, 2, 8}) {
        const std::vector<Outcome> parallel = runJobs(jobs, threads);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            SCOPED_TRACE(testing::Message()
                         << "threads=" << threads << " job="
                         << serial[i].tag << "/"
                         << serial[i].benchmark);
            ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
            EXPECT_EQ(parallel[i].tag, serial[i].tag);
            EXPECT_EQ(parallel[i].benchmark,
                      serial[i].benchmark);
            EXPECT_EQ(parallel[i].seed, serial[i].seed);
            expectIdentical(parallel[i].result.cores.front(),
                            serial[i].result.cores.front());
        }
    }
}

TEST(Runner, MatchesLegacySerialPathForSameSeed)
{
    // runBenchmark with an explicitly derived seed is the serial
    // path; the thread backend must reproduce it bit for bit.
    SimConfig config = iqBase();
    config.runSeed = deriveRunSeed(5, "gzip", "base");
    const SimResult serial = runBenchmark(config, "gzip", kCycles);

    const std::vector<Outcome> out =
        runJobs(sweepJobs({{"base", iqBase()}}, {"gzip"}, kCycles, 5),
                2);
    ASSERT_EQ(out.size(), 1u);
    ASSERT_TRUE(out[0].ok) << out[0].error;
    EXPECT_EQ(out[0].seed, config.runSeed);
    expectIdentical(out[0].result.cores.front(), serial);
}

TEST(Runner, CapturesJobErrorsWithoutAbortingTheSweep)
{
    const std::vector<Outcome> outcomes = runJobs(
        {singleCoreJob("base", iqBase(), "nosuchbenchmark", 100'000),
         singleCoreJob("base", baseConfig(FloorplanVariant::Baseline),
                       "gzip", 100'000)},
        2);
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_NE(outcomes[0].error.find("nosuchbenchmark"),
              std::string::npos);
    ASSERT_TRUE(outcomes[1].ok) << outcomes[1].error;
    EXPECT_GT(outcomes[1].result.cores.front().instructions, 0u);
}

TEST(Runner, RunBenchmarkRethrowsCapturedFatal)
{
    EXPECT_THROW(runBenchmark(iqBase(), "nosuchbenchmark", 1000),
                 FatalError);
}

TEST(Runner, SweepJobsCoverTheCrossProductInSubmissionOrder)
{
    const std::vector<Outcome> outcomes = runJobs(
        sweepJobs({{"a", baseConfig(FloorplanVariant::Baseline)},
                   {"b", iqBase()}},
                  {"gzip", "art"}, 100'000, 1),
        3);
    ASSERT_EQ(outcomes.size(), 4u);
    EXPECT_EQ(outcomes[0].tag, "a");
    EXPECT_EQ(outcomes[0].benchmark, "gzip");
    EXPECT_EQ(outcomes[1].tag, "a");
    EXPECT_EQ(outcomes[1].benchmark, "art");
    EXPECT_EQ(outcomes[2].tag, "b");
    EXPECT_EQ(outcomes[2].benchmark, "gzip");
    EXPECT_EQ(outcomes[3].tag, "b");
    EXPECT_EQ(outcomes[3].benchmark, "art");
    for (const Outcome& o : outcomes) {
        EXPECT_TRUE(o.ok) << o.error;
        EXPECT_EQ(o.seed, deriveRunSeed(1, o.benchmark, o.tag));
    }
}

} // namespace
} // namespace tempest
