/**
 * @file
 * Drift guard for the dotted-key config vocabulary now that three
 * consumers share it (tempest_run, tempest_serve, and the sweep
 * fabric): every key simConfigFromConfig() accepts must survive
 * render -> parse -> render unchanged, the defaults must keep
 * reproducing the experiment preset builders bit-for-bit, range
 * validation must stay fatal, and configFromCmpConfig() must
 * invert cmpConfigFromConfig() for every preset and scaling
 * config (the process backend ships jobs that way).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/log.hh"
#include "sim/experiment.hh"
#include "sim/paper.hh"
#include "sim/runner.hh"
#include "sim/sim_config_io.hh"

namespace tempest
{
namespace
{

/** Every documented (key, non-default sample value) pair the
 * translation accepts. New keys join this list or the round-trip
 * coverage check below fails the build. */
std::vector<std::pair<std::string, std::string>>
allKeys()
{
    return {
        {"floorplan.variant", "regfile"},
        {"thermal.time_scale", "0.125"},
        {"thermal.ambient", "308.15"},
        {"thermal.convection", "0.6"},
        {"thermal.max_cached_propagators", "4"},
        {"thermal.r_stack_bond", "8.0e-6"},
        {"thermal.stacked_die_thickness", "0.2e-3"},
        {"sim.sample_interval", "12500"},
        {"sim.warm_start", "false"},
        {"run.seed", "12345"},
        {"dtm.max_temperature", "370.5"},
        {"dtm.toggling", "true"},
        {"dtm.toggle_delta", "2.5"},
        {"dtm.alu_turnoff", "true"},
        {"dtm.regfile_turnoff", "true"},
        {"dtm.round_robin", "true"},
        {"dtm.fetch_throttling", "true"},
        {"dtm.cooling_time", "0.002"},
        {"dtm.mapping", "completely-balanced"},
    };
}

TEST(SimConfigIo, EveryKeySurvivesRenderParseRender)
{
    Config cfg;
    for (const auto& [key, value] : allKeys())
        cfg.set(key, value);

    const std::string once = cfg.render();
    Config back;
    back.parseText(once);
    EXPECT_EQ(back.entries(), cfg.entries());
    EXPECT_EQ(back.render(), once);

    // And the re-parsed config still names the same simulation.
    EXPECT_TRUE(simConfigFromConfig(back) ==
                simConfigFromConfig(cfg));
}

TEST(SimConfigIo, SampleListCoversEveryAcceptedKey)
{
    // A non-default value for every key must actually change the
    // translated SimConfig relative to the defaults — proving
    // each list entry names a live key (a typo'd key would be
    // silently ignored by the default-taking getters).
    const SimConfig defaults = simConfigFromConfig(Config{});
    for (const auto& [key, value] : allKeys()) {
        Config cfg;
        cfg.set(key, value);
        if (key == "run.seed") {
            EXPECT_NE(simConfigFromConfig(cfg).runSeed,
                      defaults.runSeed);
            continue;
        }
        const SimConfig translated = simConfigFromConfig(cfg);
        const bool differs =
            translated.variant != defaults.variant ||
            translated.thermal.timeScale !=
                defaults.thermal.timeScale ||
            translated.thermal.ambient !=
                defaults.thermal.ambient ||
            translated.thermal.rConvection !=
                defaults.thermal.rConvection ||
            translated.thermal.maxCachedPropagators !=
                defaults.thermal.maxCachedPropagators ||
            translated.thermal.rStackBondPerArea !=
                defaults.thermal.rStackBondPerArea ||
            translated.thermal.stackedDieThickness !=
                defaults.thermal.stackedDieThickness ||
            translated.sampleIntervalCycles !=
                defaults.sampleIntervalCycles ||
            translated.warmStart != defaults.warmStart ||
            translated.dtm.maxTemperature !=
                defaults.dtm.maxTemperature ||
            translated.dtm.iqToggling !=
                defaults.dtm.iqToggling ||
            translated.dtm.toggleDeltaK !=
                defaults.dtm.toggleDeltaK ||
            translated.dtm.aluTurnoff !=
                defaults.dtm.aluTurnoff ||
            translated.dtm.regfileTurnoff !=
                defaults.dtm.regfileTurnoff ||
            translated.dtm.roundRobin !=
                defaults.dtm.roundRobin ||
            translated.dtm.fetchThrottling !=
                defaults.dtm.fetchThrottling ||
            translated.dtm.coolingTime !=
                defaults.dtm.coolingTime ||
            translated.dtm.mapping != defaults.dtm.mapping;
        EXPECT_TRUE(differs)
            << key << "=" << value
            << " did not change the translated SimConfig";
    }
}

TEST(SimConfigIo, DefaultsReproduceIqBase)
{
    // The empty config IS the neutral iqBase() preset, so a
    // tempest_run or tempest_serve config names the paper's
    // experiments by their differences from it.
    SimConfig expected = experiments::iqBase();
    SimConfig got = simConfigFromConfig(Config{});
    got.runSeed = expected.runSeed; // seed is not preset-defined
    EXPECT_TRUE(got == expected);
}

TEST(SimConfigIo, DottedTogglingReproducesIqToggling)
{
    Config cfg;
    cfg.set("dtm.toggling", "true");
    SimConfig expected = experiments::iqToggling();
    SimConfig got = simConfigFromConfig(cfg);
    got.runSeed = expected.runSeed;
    EXPECT_TRUE(got == expected);
}

/** Every cmp.* / stack.* key with a non-default sample value. */
std::vector<std::pair<std::string, std::string>>
cmpKeys()
{
    return {
        {"cmp.cores", "4"},
        {"cmp.l2", "false"},
        {"cmp.benchmarks", "art, mesa, eon, mcf"},
        {"cmp.migration.enabled", "true"},
        {"cmp.migration.margin", "5.5"},
        {"cmp.migration.min_gap", "0.25"},
        {"cmp.migration.cooldown_intervals", "7"},
        {"cmp.migration.stall_cycles", "12345"},
        {"cmp.migration.bytes_per_cycle", "32"},
        {"stack.dram", "true"},
        {"stack.dram_energy_per_access", "1.5e-8"},
        {"stack.dram_static_w", "2.25"},
    };
}

TEST(SimConfigIo, CmpKeysSurviveRenderParseRender)
{
    Config cfg;
    for (const auto& [key, value] : cmpKeys())
        cfg.set(key, value);

    const std::string once = cfg.render();
    Config back;
    back.parseText(once);
    EXPECT_EQ(back.entries(), cfg.entries());
    EXPECT_EQ(back.render(), once);
    EXPECT_TRUE(cmpConfigFromConfig(back) ==
                cmpConfigFromConfig(cfg));
}

TEST(SimConfigIo, CmpSampleListCoversEveryAcceptedKey)
{
    const CmpSimConfig defaults = cmpConfigFromConfig(Config{});
    for (const auto& [key, value] : cmpKeys()) {
        Config cfg;
        cfg.set(key, value);
        if (key == "cmp.benchmarks") {
            // A per-core list needs a matching core count; the
            // benchmarks field still differs from the default.
            cfg.set("cmp.cores", "4");
        }
        const CmpSimConfig t = cmpConfigFromConfig(cfg);
        const bool differs =
            t.cores != defaults.cores ||
            t.sharedL2 != defaults.sharedL2 ||
            t.benchmarks != defaults.benchmarks ||
            t.migration.enabled != defaults.migration.enabled ||
            t.migration.marginK != defaults.migration.marginK ||
            t.migration.minGapK != defaults.migration.minGapK ||
            t.migration.cooldownIntervals !=
                defaults.migration.cooldownIntervals ||
            t.migration.baseStallCycles !=
                defaults.migration.baseStallCycles ||
            t.migration.busBytesPerCycle !=
                defaults.migration.busBytesPerCycle ||
            t.stack.dram != defaults.stack.dram ||
            t.stack.dramEnergyPerAccess !=
                defaults.stack.dramEnergyPerAccess ||
            t.stack.dramStaticW != defaults.stack.dramStaticW;
        EXPECT_TRUE(differs)
            << key << "=" << value
            << " did not change the translated CmpSimConfig";
    }
}

TEST(SimConfigIo, CmpDefaultsNameTheSingleCoreSimulation)
{
    const CmpSimConfig cmp = cmpConfigFromConfig(Config{});
    EXPECT_EQ(cmp.cores, 1);
    EXPECT_TRUE(cmp.sharedL2);
    EXPECT_EQ(cmp.benchmarks,
              std::vector<std::string>{"eon"});
    EXPECT_FALSE(cmp.migration.enabled);
    EXPECT_FALSE(cmp.stack.dram);
}

TEST(SimConfigIo, CmpBenchmarksFollowRunBenchmark)
{
    Config cfg;
    cfg.set("run.benchmark", "art");
    cfg.set("cmp.cores", "2");
    const CmpSimConfig cmp = cmpConfigFromConfig(cfg);
    EXPECT_EQ(cmp.benchmarks,
              std::vector<std::string>{"art"});
}

TEST(SimConfigIo, CmpRangeValidationStaysFatal)
{
    Config zero_cores;
    zero_cores.set("cmp.cores", "0");
    EXPECT_THROW(cmpConfigFromConfig(zero_cores), FatalError);

    Config too_many;
    too_many.set("cmp.cores", "9");
    EXPECT_THROW(cmpConfigFromConfig(too_many), FatalError);

    Config bad_bus;
    bad_bus.set("cmp.migration.bytes_per_cycle", "0");
    EXPECT_THROW(cmpConfigFromConfig(bad_bus), FatalError);

    Config negative_stall;
    negative_stall.set("cmp.migration.stall_cycles", "-1");
    EXPECT_THROW(cmpConfigFromConfig(negative_stall), FatalError);

    Config mismatched;
    mismatched.set("cmp.cores", "4");
    mismatched.set("cmp.benchmarks", "art,mesa");
    EXPECT_THROW(cmpConfigFromConfig(mismatched), FatalError);

    Config bad_cache;
    bad_cache.set("thermal.max_cached_propagators", "0");
    EXPECT_THROW(simConfigFromConfig(bad_cache), FatalError);
}

TEST(SimConfigIo, RangeValidationStaysFatal)
{
    Config bad_interval;
    bad_interval.set("sim.sample_interval", "0");
    EXPECT_THROW(simConfigFromConfig(bad_interval), FatalError);

    Config negative_seed;
    negative_seed.set("run.seed", "-1");
    EXPECT_THROW(simConfigFromConfig(negative_seed), FatalError);

    Config bad_variant;
    bad_variant.set("floorplan.variant", "hexagon");
    EXPECT_THROW(simConfigFromConfig(bad_variant), FatalError);

    Config bad_mapping;
    bad_mapping.set("dtm.mapping", "sideways");
    EXPECT_THROW(simConfigFromConfig(bad_mapping), FatalError);
}

/** The message of the FatalError `fn` throws, or "" if none. */
template <typename Fn>
std::string
fatalMessage(Fn&& fn)
{
    try {
        fn();
    } catch (const FatalError& e) {
        return e.what();
    }
    return "";
}

TEST(SimConfigIo, CachedPropagatorCountBeyondIntIsFatal)
{
    // Regression: the count was narrowed to int after a lower-bound
    // check only, so 2^32 + 4 ran with a cache of 4.
    for (const char* bad : {"4294967300", "2147483648"}) {
        Config cfg;
        cfg.set("thermal.max_cached_propagators", bad);
        const std::string what = fatalMessage(
            [&] { simConfigFromConfig(cfg); });
        EXPECT_NE(what.find("thermal.max_cached_propagators"),
                  std::string::npos)
            << bad << ": " << what;
    }
    Config largest;
    largest.set("thermal.max_cached_propagators", "2147483647");
    EXPECT_EQ(simConfigFromConfig(largest).thermal.maxCachedPropagators,
              2147483647);
}

TEST(SimConfigIo, UnknownKeyIsFatalNamingIt)
{
    Config sim;
    for (const auto& [key, value] : allKeys())
        sim.set(key, value);
    EXPECT_NO_THROW(simConfigFromConfig(sim));
    Config cmp = sim;
    for (const auto& [key, value] : cmpKeys())
        cmp.set(key, value);
    cmp.set("run.benchmark", "art");
    EXPECT_NO_THROW(cmpConfigFromConfig(cmp));

    // A misspelled key, and a CMP key the single-core reader
    // does not apply, each name themselves.
    Config typo = sim;
    typo.set("dtm.togling", "true");
    EXPECT_NE(fatalMessage([&] { simConfigFromConfig(typo); })
                  .find("'dtm.togling'"),
              std::string::npos);
    Config cores = sim;
    cores.set("cmp.cores", "4");
    EXPECT_NE(fatalMessage([&] { simConfigFromConfig(cores); })
                  .find("'cmp.cores'"),
              std::string::npos);

    // A key only the caller reads passes when the caller names it.
    cmp.set("run.cycles", "1000");
    EXPECT_NE(fatalMessage([&] { cmpConfigFromConfig(cmp); })
                  .find("'run.cycles'"),
              std::string::npos);
    EXPECT_NO_THROW(cmpConfigFromConfig(cmp, {"run.cycles"}));
}

/** cmpConfigFromConfig(configFromCmpConfig(c)), seed restored. */
CmpSimConfig
throughKeys(const CmpSimConfig& c)
{
    CmpSimConfig back = cmpConfigFromConfig(configFromCmpConfig(c));
    back.base.runSeed = c.base.runSeed;
    return back;
}

CmpSimConfig
singleCore(const SimConfig& config)
{
    CmpSimConfig cmp;
    cmp.base = config;
    cmp.benchmarks = {"art"};
    return cmp;
}

TEST(SimConfigIo, InverseRendersEveryKeyButTheSeed)
{
    std::set<std::string> expected;
    for (const auto& [key, value] : allKeys())
        expected.insert(key);
    for (const auto& [key, value] : cmpKeys())
        expected.insert(key);
    expected.erase("run.seed");
    const Config keys = configFromCmpConfig(CmpSimConfig{});
    std::set<std::string> rendered;
    for (const auto& [key, value] : keys.entries())
        rendered.insert(key);
    EXPECT_EQ(rendered, expected);
}

TEST(SimConfigIo, InverseRoundTripsEveryPresetAndScaleConfig)
{
    using namespace experiments;
    std::vector<SimConfig> presets = {iqBase(), iqToggling(),
                                      aluBase(), aluFineGrain(),
                                      aluRoundRobin(), iqBase(0.125)};
    for (const PortMapping mapping :
         {PortMapping::Priority, PortMapping::Balanced,
          PortMapping::CompletelyBalanced}) {
        presets.push_back(regfileConfig(mapping, false));
        presets.push_back(regfileConfig(mapping, true));
    }
    for (const FloorplanVariant variant :
         {FloorplanVariant::Baseline, FloorplanVariant::IqConstrained,
          FloorplanVariant::AluConstrained,
          FloorplanVariant::RegfileConstrained})
        presets.push_back(baseConfig(variant));
    for (const auto& [tag, config] : paper::scaleConfigs())
        presets.push_back(config);
    for (SimConfig config : presets) {
        // A derived seed >= 2^63, which run.seed cannot carry.
        config.runSeed = deriveRunSeed(1, "art", "warmup");
        const CmpSimConfig cmp = singleCore(config);
        EXPECT_TRUE(throughKeys(cmp) == cmp);
    }
    for (const Job& job : paper::cmpScaleJobs(1000))
        EXPECT_TRUE(throughKeys(job.config) == job.config) << job.tag;
}

TEST(SimConfigIo, InverseRoundTripsEveryNonDefaultKey)
{
    Config cfg;
    for (const auto& [key, value] : allKeys())
        cfg.set(key, value);
    for (const auto& [key, value] : cmpKeys())
        cfg.set(key, value);
    const CmpSimConfig cmp = cmpConfigFromConfig(cfg);
    EXPECT_TRUE(throughKeys(cmp) == cmp);
}

TEST(SimConfigIo, InverseCannotCarryAFieldWithoutAKey)
{
    CmpSimConfig cmp = singleCore(experiments::iqBase());
    cmp.base.energy.iqLongCompaction =
        EnergyParams::paperLongCompaction;
    EXPECT_FALSE(throughKeys(cmp) == cmp);
}

} // namespace
} // namespace tempest
