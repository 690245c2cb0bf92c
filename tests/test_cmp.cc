/**
 * @file
 * CMP-layer tests: the 1-core engine against the single-core
 * Simulator facade, 2-core golden hashes (stable across
 * Debug/Release and thread-backend sizes), cross-core migration
 * mechanics, mid-flight checkpoint round-trips, measurement
 * origins, die-wide traces, and the stacked DRAM (3D) heating
 * path.
 *
 * Simulator is a facade over a 1-core CmpSimulator, so the N=1
 * identity holds by construction; the N=1 test still checks that
 * the name-based and profile-based constructors build the same
 * engine, and the single-core goldens (test_golden) pin every
 * floating-point operation of the one loop.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/log.hh"
#include "sim/checkpoint/checkpoint.hh"
#include "sim/cmp/cmp_simulator.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "sim/trace.hh"
#include "workload/profile.hh"

namespace tempest
{
namespace
{

using experiments::hashSimResult;

constexpr std::uint64_t kCycles = 200'000;

CmpSimConfig
cmpConfigFor(int cores, std::vector<std::string> benchmarks)
{
    CmpSimConfig cmp;
    cmp.base = experiments::iqBase();
    cmp.cores = cores;
    cmp.benchmarks = std::move(benchmarks);
    return cmp;
}

/** Aggressive migration knobs so short runs migrate. */
CmpMigrationConfig
eagerMigration()
{
    CmpMigrationConfig mig;
    mig.enabled = true;
    mig.marginK = 400.0; // any tile counts as hot
    mig.minGapK = 0.0;   // any strictly cooler tile accepts
    mig.cooldownIntervals = 2;
    mig.baseStallCycles = 10'000;
    mig.busBytesPerCycle = 64;
    return mig;
}

TEST(Cmp, SingleCoreMatchesSimulatorBitExactly)
{
    for (const char* benchmark : {"art", "mesa"}) {
        Simulator single(experiments::iqBase(),
                         spec2000(benchmark));
        const SimResult expect = single.run(kCycles);

        CmpSimulator cmp(cmpConfigFor(1, {benchmark}));
        const CmpResult got = cmp.run(kCycles);

        ASSERT_EQ(got.cores.size(), 1u);
        EXPECT_TRUE(got.shared.empty());
        EXPECT_EQ(hashSimResult(got.cores[0]),
                  hashSimResult(expect))
            << benchmark
            << ": 1-core CMP diverged from the Simulator facade";
        EXPECT_EQ(got.cycles, expect.cycles);
    }
}

/** The N=1 floorplan must literally be the single-core one: same
 * blocks, same names, no L2 strip, no prefixes. */
TEST(Cmp, SingleCoreFloorplanIsUnchanged)
{
    CmpSimulator cmp(cmpConfigFor(1, {"eon"}));
    const Floorplan single =
        Floorplan::ev6Like(FloorplanVariant::IqConstrained);
    ASSERT_EQ(cmp.floorplan().numBlocks(), single.numBlocks());
    for (int b = 0; b < single.numBlocks(); ++b) {
        EXPECT_EQ(cmp.floorplan().block(b).name,
                  single.block(b).name);
    }
}

struct CmpGoldenCase
{
    const char* name;
    int cores;
    std::vector<std::string> benchmarks;
    bool migration;
    bool dram;
    std::uint64_t hash;
};

/**
 * Checked-in CMP goldens (TEMPEST_PRINT_GOLDENS=1 re-derives).
 * Cover the 2-core migration sweep and the stacked-DRAM scenario;
 * ci.yml's cmp-smoke job runs this under Debug, Release, and TSan.
 */
const std::vector<CmpGoldenCase>&
cmpGoldens()
{
    static const std::vector<CmpGoldenCase> cases = {
        {"dual_art_mesa", 2, {"art", "mesa"}, false, false,
         0xed82730c0504e414ULL},
        {"dual_art_mesa_migration", 2, {"art", "mesa"}, true,
         false, 0xc48c84254526ce41ULL},
        {"dual_art_dram", 2, {"art", "art"}, false, true,
         0xba5e7c66254d07cbULL},
    };
    return cases;
}

Job
jobFor(const CmpGoldenCase& c)
{
    Job job;
    job.tag = c.name;
    job.config = cmpConfigFor(c.cores, c.benchmarks);
    if (c.migration)
        job.config.migration = eagerMigration();
    job.config.stack.dram = c.dram;
    job.cycles = kCycles;
    return job;
}

TEST(Cmp, GoldenBitIdentity)
{
    const bool print =
        std::getenv("TEMPEST_PRINT_GOLDENS") != nullptr;
    for (const CmpGoldenCase& c : cmpGoldens()) {
        CmpSimulator sim(jobFor(c).config);
        const std::uint64_t got = hashCmpResult(sim.run(kCycles));
        if (print) {
            std::printf("    {\"%s\", ..., 0x%016llxULL},\n",
                        c.name,
                        static_cast<unsigned long long>(got));
            continue;
        }
        EXPECT_EQ(got, c.hash)
            << c.name << ": CmpResult changed (got 0x" << std::hex
            << got << ", golden 0x" << c.hash << std::dec
            << "). If the semantic change is intended, re-derive "
               "with TEMPEST_PRINT_GOLDENS=1 and document it.";
    }
}

/** CMP job outcomes on the thread backend must not depend on the
 * thread count, and must match the goldens. */
TEST(Cmp, JobsAreThreadCountInvariant)
{
    std::vector<Job> jobs;
    for (const CmpGoldenCase& c : cmpGoldens())
        jobs.push_back(jobFor(c));

    for (const int threads : {1, 2, 8}) {
        const std::vector<Outcome> out = runJobs(jobs, threads);
        ASSERT_EQ(out.size(), jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            ASSERT_TRUE(out[i].ok) << out[i].error;
            EXPECT_EQ(out[i].tag, jobs[i].tag);
            EXPECT_EQ(hashCmpResult(out[i].result),
                      cmpGoldens()[i].hash)
                << jobs[i].tag << " at " << threads << " threads";
        }
    }
}

TEST(Cmp, MigrationFiresAndPricesTransfer)
{
    CmpSimConfig config = cmpConfigFor(2, {"art", "mesa"});
    config.migration = eagerMigration();
    CmpSimulator sim(config);
    const CmpResult r = sim.run(kCycles);

    ASSERT_GE(r.migration.migrations, 1u);
    EXPECT_GT(r.migration.bytesMoved, 0u);
    // Stall = 2 * (base + bytes/bandwidth) per swap, so the charge
    // must exceed the base cost alone on both endpoints.
    EXPECT_GE(r.migration.migrationStallCycles,
              r.migration.migrations * 2 *
                  config.migration.baseStallCycles);
    // Migration stalls are served as real clock-gated cycles.
    std::uint64_t stall_cycles = 0;
    for (const SimResult& c : r.cores)
        stall_cycles += c.stallCycles;
    EXPECT_GT(stall_cycles, 0u);
    // The placement stays a permutation.
    ASSERT_EQ(r.tileOfJob.size(), 2u);
    EXPECT_NE(r.tileOfJob[0], r.tileOfJob[1]);
}

TEST(Cmp, MigrationDisabledNeverMigrates)
{
    CmpSimConfig config = cmpConfigFor(2, {"art", "mesa"});
    CmpSimulator sim(config);
    const CmpResult r = sim.run(kCycles);
    EXPECT_EQ(r.migration.migrations, 0u);
    EXPECT_EQ(r.tileOfJob[0], 0);
    EXPECT_EQ(r.tileOfJob[1], 1);
}

/**
 * Checkpoint taken immediately after a migration fired — both
 * endpoints still owe transfer-stall cycles — must restore
 * bit-identically and replay to the same end-of-run hash.
 */
TEST(Cmp, CheckpointRoundTripsMidFlightMigration)
{
    CmpSimConfig config = cmpConfigFor(2, {"art", "mesa"});
    config.migration = eagerMigration();

    CmpSimulator sim(config);
    bool migrated = false;
    for (int i = 0; i < 200 && !migrated; ++i) {
        sim.stepOnce();
        migrated = sim.migrationStats().migrations >= 1;
    }
    ASSERT_TRUE(migrated)
        << "eager migration never fired within 200 steps";

    const std::string ckpt = sim.saveCheckpoint();
    const std::uint64_t end = sim.cycle() + kCycles;

    sim.runTo(end);
    const std::uint64_t direct = hashCmpResult(sim.result());

    CmpSimulator resumed(config);
    resumed.restoreCheckpoint(ckpt);
    resumed.runTo(end);
    EXPECT_EQ(hashCmpResult(resumed.result()), direct)
        << "mid-flight migration state did not round-trip";
}

/** Piecewise runTo (the checkpoint loop's shape) must replay the
 * same step sequence as one monolithic call. */
TEST(Cmp, PiecewiseRunToMatchesMonolithic)
{
    CmpSimConfig config = cmpConfigFor(2, {"art", "mesa"});
    config.migration = eagerMigration();

    CmpSimulator mono(config);
    mono.runTo(kCycles);
    const std::uint64_t expect = hashCmpResult(mono.result());

    CmpSimulator piecewise(config);
    piecewise.runTo(kCycles / 4);
    piecewise.runTo(kCycles / 2);
    piecewise.runTo(kCycles);
    EXPECT_EQ(hashCmpResult(piecewise.result()), expect);
}

TEST(Cmp, StackedDramHeatsTheCoreBeneath)
{
    // Lift the DTM threshold out of the way so the comparison sees
    // pure thermal coupling, not stop-go clamping.
    CmpSimConfig cool = cmpConfigFor(1, {"art"});
    cool.base.dtm.maxTemperature = 1000.0;

    CmpSimConfig stacked = cool;
    stacked.stack.dram = true;

    CmpSimulator without(cool);
    const CmpResult base = without.run(kCycles);
    CmpSimulator with(stacked);
    const CmpResult dram = with.run(kCycles);

    ASSERT_EQ(dram.shared.size(), 1u);
    EXPECT_EQ(dram.shared[0].name, "DRAM0");
    EXPECT_GT(dram.shared[0].max, cool.base.thermal.ambient);

    // Every core block sits under the bank; the hottest one must
    // run measurably hotter with the stacked die present.
    Kelvin base_peak = 0.0;
    Kelvin dram_peak = 0.0;
    for (int b = 0; b < 26; ++b) {
        base_peak = std::max(base_peak, base.cores[0].blocks
                                            [static_cast<std::size_t>(
                                                b)].max);
        dram_peak = std::max(dram_peak, dram.cores[0].blocks
                                            [static_cast<std::size_t>(
                                                b)].max);
    }
    EXPECT_GT(dram_peak, base_peak + 0.1);
}

/**
 * Memory-bound workloads on a 3D stack must engage the DTM. The
 * scenario uses a tightened thermal envelope (stacking a die over
 * the cores raises the package resistance, so 3D parts trip DTM at
 * a lower sensor reading): under it, flat art stays clear of the
 * threshold and stacked art — its Dcache sitting beneath a busy
 * DRAM bank — crosses it and draws cooling stalls.
 */
TEST(Cmp, StackedDramTriggersDtmOnMemoryBoundWorkloads)
{
    CmpSimConfig flat = cmpConfigFor(1, {"art"});
    flat.base.dtm.maxTemperature = 335.5; // 3D envelope
    CmpSimConfig stacked = flat;
    stacked.stack.dram = true;

    CmpSimulator flat_sim(flat);
    const CmpResult flat_r = flat_sim.run(kCycles);
    CmpSimulator stacked_sim(stacked);
    const CmpResult stacked_r = stacked_sim.run(kCycles);

    EXPECT_EQ(flat_r.cores[0].dtm.globalStalls, 0u)
        << "flat art should stay under the 3D envelope";
    EXPECT_GT(stacked_r.cores[0].dtm.globalStalls, 0u)
        << "stacked DRAM heat should push art over the envelope";
}

/**
 * Copy every chunk of a 2-core checkpoint into a new one, letting
 * `edit` rewrite the payloads (id, payload bytes).
 */
std::string
copyCheckpoint(
    const std::string& bytes,
    const std::function<void(std::uint32_t, std::string&)>& edit)
{
    const CheckpointReader reader(bytes);
    CheckpointWriter out;
    for (const std::uint32_t id :
         {chunkId("CMPM"), chunkId("JB00"), chunkId("JB01"),
          chunkId("CTHM"), chunkId("CSNS"), chunkId("CMPD")}) {
        StateReader r = reader.chunk(id);
        std::string payload;
        while (!r.atEnd())
            payload.push_back(static_cast<char>(r.u8()));
        edit(id, payload);
        StateWriter& w = out.chunk(id);
        for (const char c : payload)
            w.u8(static_cast<std::uint8_t>(c));
    }
    return out.serialize();
}

/** A placement with two jobs on one tile must not restore. */
TEST(Cmp, CheckpointRejectsPlacementThatIsNotAPermutation)
{
    const CmpSimConfig config = cmpConfigFor(2, {"art", "mesa"});
    CmpSimulator sim(config);
    sim.runTo(kCycles / 2);
    const std::string good = sim.saveCheckpoint();

    // The copier itself is faithful.
    EXPECT_EQ(copyCheckpoint(good,
                             [](std::uint32_t, std::string&) {}),
              good);

    // CMPD holds the migration policy's state, then tileOfJob.
    StateWriter policy;
    CmpDtmPolicy(config.migration, config.base.dtm.maxTemperature,
                 config.cores)
        .saveState(policy);
    const std::size_t placement = policy.size();
    const std::string bad = copyCheckpoint(
        good, [&](std::uint32_t id, std::string& payload) {
            if (id != chunkId("CMPD"))
                return;
            ASSERT_GE(payload.size(), placement + 8);
            // tileOfJob = [0, 0]: both jobs on tile 0.
            for (std::size_t k = 0; k < 8; ++k)
                payload[placement + k] = 0;
        });

    CmpSimulator restored(config);
    EXPECT_THROW(restored.restoreCheckpoint(bad), FatalError);
    EXPECT_NO_THROW(restored.restoreCheckpoint(good));
}

/**
 * resetMeasurement at N=2, through a checkpoint on either side of
 * the reset: the result covers only the region after the reset and
 * equals the in-memory warm -> reset -> run.
 */
TEST(Cmp, ResetMeasurementRoundTripsThroughCheckpoints)
{
    CmpSimConfig config = cmpConfigFor(2, {"art", "mesa"});
    config.migration = eagerMigration();
    constexpr std::uint64_t kWarm = kCycles / 2;

    CmpSimulator direct(config);
    direct.runTo(kWarm);
    const std::uint64_t origin = direct.cycle();
    direct.resetMeasurement();
    direct.runTo(kCycles);
    const CmpResult expect = direct.result();
    for (const SimResult& c : expect.cores)
        EXPECT_EQ(c.cycles, expect.cycles - origin);

    // warm -> save -> restore -> reset -> run.
    CmpSimulator warm(config);
    warm.runTo(kWarm);
    CmpSimulator forked(config);
    forked.restoreCheckpoint(warm.saveCheckpoint());
    forked.resetMeasurement();
    forked.runTo(kCycles);
    EXPECT_EQ(hashCmpResult(forked.result()), hashCmpResult(expect));

    // warm -> reset -> save -> restore -> run: the origins travel
    // with the checkpoint.
    warm.resetMeasurement();
    CmpSimulator resumed(config);
    resumed.restoreCheckpoint(warm.saveCheckpoint());
    resumed.runTo(kCycles);
    EXPECT_EQ(hashCmpResult(resumed.result()),
              hashCmpResult(expect));
}

/** A cooling time that is no stall cycle count is refused at
 * construction: negative and huge ones used to run past any
 * timeout, and 0 silently disabled the stop-go fallback. */
TEST(Cmp, RejectsCoolingTimeWithoutAStallCycleCount)
{
    for (const double seconds :
         {-1.0, 0.0, 1e-12, 1e30, std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN()}) {
        CmpSimConfig config = cmpConfigFor(1, {"art"});
        config.base.dtm.coolingTime = seconds;
        EXPECT_THROW(CmpSimulator{config}, FatalError) << seconds;
    }
    CmpSimConfig config = cmpConfigFor(1, {"art"});
    config.base.dtm.coolingTime = 0.01;
    EXPECT_NO_THROW(CmpSimulator{config});
}

/** The 1-core engine runs a profile that is not in SPEC2000. */
TEST(Cmp, SingleCoreEngineRunsACustomProfile)
{
    BenchmarkProfile custom = spec2000("gzip");
    custom.name = "my_workload";
    custom.branchMispredictRate = 0.2;
    custom.validate();

    EXPECT_THROW(CmpSimulator(cmpConfigFor(1, {"my_workload"})),
                 FatalError);
    CmpSimulator sim(cmpConfigFor(1, {}), {custom});
    EXPECT_EQ(sim.config().benchmarks,
              std::vector<std::string>{"my_workload"});
    const CmpResult r = sim.run(kCycles);
    ASSERT_EQ(r.cores.size(), 1u);
    EXPECT_EQ(r.cores[0].benchmark, "my_workload");
    EXPECT_GT(r.cores[0].instructions, 0u);

    CmpSimulator gzip(cmpConfigFor(1, {"gzip"}));
    EXPECT_NE(hashSimResult(gzip.run(kCycles).cores[0]),
              hashSimResult(r.cores[0]));
}

/** A 2-core trace has one row per step and a column per die
 * block, and agrees with the per-core results. */
TEST(Cmp, TraceRecordsTheWholeDieEveryStep)
{
    CmpSimulator sim(cmpConfigFor(2, {"art", "mesa"}));
    ThermalTrace trace(sim.floorplan());
    sim.setTrace(&trace);
    std::vector<std::uint64_t> step_ends;
    while (sim.cycle() < kCycles) {
        sim.stepOnce();
        step_ends.push_back(sim.cycle());
    }
    const CmpResult r = sim.result();

    const auto blocks =
        static_cast<std::size_t>(sim.floorplan().numBlocks());
    EXPECT_EQ(blocks, 2 * r.cores[0].blocks.size() + 1); // + L2
    ASSERT_EQ(trace.size(), step_ends.size());
    std::uint64_t instructions = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TraceSample& s = trace.sample(i);
        EXPECT_EQ(s.cycle, step_ends[i]);
        EXPECT_EQ(s.temperature.size(), blocks);
        EXPECT_EQ(s.power.size(), blocks);
        instructions += s.instructions;
    }
    EXPECT_EQ(instructions,
              r.cores[0].instructions + r.cores[1].instructions);

    // No migration: job j sits on tile j.
    EXPECT_DOUBLE_EQ(
        trace.peak(sim.floorplan().indexOf("C1.IntQ1")),
        r.cores[1].block("IntQ1").max);
    EXPECT_DOUBLE_EQ(trace.peak(sim.floorplan().indexOf("L2")),
                     r.shared[0].max);
    const std::string csv = trace.toCsv();
    EXPECT_NE(csv.find(",T_C0.IntQ1,"), std::string::npos);
    EXPECT_NE(csv.find(",P_L2"), std::string::npos);
}

} // namespace
} // namespace tempest
