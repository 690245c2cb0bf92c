#include "sim/sim_config_io.hh"

#include <algorithm>
#include <limits>
#include <span>
#include <string_view>

#include "common/log.hh"
#include "uarch/regfile.hh"

namespace tempest
{

namespace
{

/** Every key readSimConfig() reads. */
constexpr std::string_view kSimKeys[] = {
    "floorplan.variant", "thermal.time_scale", "thermal.ambient",
    "thermal.convection", "thermal.max_cached_propagators",
    "thermal.r_stack_bond", "thermal.stacked_die_thickness",
    "sim.sample_interval", "sim.warm_start", "run.seed",
    "dtm.max_temperature", "dtm.toggling", "dtm.toggle_delta",
    "dtm.alu_turnoff", "dtm.regfile_turnoff", "dtm.round_robin",
    "dtm.fetch_throttling", "dtm.cooling_time", "dtm.mapping",
};

/** The keys cmpConfigFromConfig() reads on top of kSimKeys. */
constexpr std::string_view kCmpKeys[] = {
    "run.benchmark", "cmp.cores", "cmp.l2", "cmp.benchmarks",
    "cmp.migration.enabled", "cmp.migration.margin",
    "cmp.migration.min_gap", "cmp.migration.cooldown_intervals",
    "cmp.migration.stall_cycles", "cmp.migration.bytes_per_cycle",
    "stack.dram", "stack.dram_energy_per_access",
    "stack.dram_static_w",
};

/** fatal() naming the first key of `cfg` that no list holds. */
void
rejectUnknownKeys(const Config& cfg,
                  std::initializer_list<std::span<const std::string_view>>
                      lists)
{
    for (const auto& [key, value] : cfg.entries()) {
        bool known = false;
        for (const auto keys : lists)
            known = known || std::find(keys.begin(), keys.end(), key) !=
                                 keys.end();
        if (!known)
            fatal("unknown config key '", key, "'");
    }
}

} // namespace

FloorplanVariant
parseFloorplanVariant(const std::string& name)
{
    if (name == "baseline")
        return FloorplanVariant::Baseline;
    if (name == "iq")
        return FloorplanVariant::IqConstrained;
    if (name == "alu")
        return FloorplanVariant::AluConstrained;
    if (name == "regfile")
        return FloorplanVariant::RegfileConstrained;
    fatal("unknown floorplan variant '", name,
          "' (baseline|iq|alu|regfile)");
}

PortMapping
parsePortMapping(const std::string& name)
{
    if (name == "priority")
        return PortMapping::Priority;
    if (name == "balanced")
        return PortMapping::Balanced;
    if (name == "completely-balanced")
        return PortMapping::CompletelyBalanced;
    fatal("unknown mapping '", name, "'");
}

namespace
{

/** simConfigFromConfig() without the unknown-key check. */
SimConfig
readSimConfig(const Config& cfg)
{
    SimConfig sim;
    sim.variant = parseFloorplanVariant(
        cfg.getString("floorplan.variant", "iq"));
    sim.thermal.timeScale =
        cfg.getDouble("thermal.time_scale", 0.04);
    sim.thermal.ambient =
        cfg.getDouble("thermal.ambient", sim.thermal.ambient);
    sim.thermal.rConvection = cfg.getDouble(
        "thermal.convection", sim.thermal.rConvection);
    const std::int64_t max_cached = cfg.getInt(
        "thermal.max_cached_propagators",
        sim.thermal.maxCachedPropagators);
    if (max_cached < 1 ||
        max_cached > std::numeric_limits<int>::max()) {
        fatal("thermal.max_cached_propagators must be in [1, ",
              std::numeric_limits<int>::max(), "] (got ", max_cached,
              ")");
    }
    sim.thermal.maxCachedPropagators =
        static_cast<int>(max_cached);
    sim.thermal.rStackBondPerArea = cfg.getDouble(
        "thermal.r_stack_bond", sim.thermal.rStackBondPerArea);
    sim.thermal.stackedDieThickness =
        cfg.getDouble("thermal.stacked_die_thickness",
                      sim.thermal.stackedDieThickness);
    const std::int64_t sample_interval =
        cfg.getInt("sim.sample_interval", 50000);
    if (sample_interval <= 0) {
        fatal("sim.sample_interval must be > 0 (got ",
              sample_interval, ")");
    }
    sim.sampleIntervalCycles =
        static_cast<std::uint64_t>(sample_interval);
    sim.warmStart = cfg.getBool("sim.warm_start", true);
    const std::int64_t seed = cfg.getInt("run.seed", 1);
    if (seed < 0)
        fatal("run.seed must be >= 0 (got ", seed, ")");
    sim.runSeed = static_cast<std::uint64_t>(seed);

    DtmConfig& dtm = sim.dtm;
    dtm.maxTemperature = cfg.getDouble("dtm.max_temperature",
                                       sim.thermal.maxTemperature);
    dtm.iqToggling = cfg.getBool("dtm.toggling", false);
    dtm.toggleDeltaK =
        cfg.getDouble("dtm.toggle_delta", dtm.toggleDeltaK);
    dtm.aluTurnoff = cfg.getBool("dtm.alu_turnoff", false);
    dtm.regfileTurnoff =
        cfg.getBool("dtm.regfile_turnoff", false);
    dtm.roundRobin = cfg.getBool("dtm.round_robin", false);
    dtm.fetchThrottling =
        cfg.getBool("dtm.fetch_throttling", false);
    dtm.coolingTime =
        cfg.getDouble("dtm.cooling_time", dtm.coolingTime);
    dtm.mapping = parsePortMapping(
        cfg.getString("dtm.mapping", "priority"));
    return sim;
}

const char*
variantKey(FloorplanVariant variant)
{
    switch (variant) {
      case FloorplanVariant::Baseline: return "baseline";
      case FloorplanVariant::IqConstrained: return "iq";
      case FloorplanVariant::AluConstrained: return "alu";
      case FloorplanVariant::RegfileConstrained: return "regfile";
    }
    return "invalid";
}

/** Split a comma-separated list, trimming surrounding spaces. */
std::vector<std::string>
splitList(const std::string& s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        std::size_t a = pos;
        std::size_t b = comma;
        while (a < b && s[a] == ' ')
            ++a;
        while (b > a && s[b - 1] == ' ')
            --b;
        if (b > a)
            out.push_back(s.substr(a, b - a));
        pos = comma + 1;
    }
    return out;
}

} // namespace

SimConfig
simConfigFromConfig(const Config& cfg)
{
    rejectUnknownKeys(cfg, {kSimKeys});
    return readSimConfig(cfg);
}

CmpSimConfig
cmpConfigFromConfig(const Config& cfg,
                    std::initializer_list<std::string_view> callerKeys)
{
    rejectUnknownKeys(cfg, {kSimKeys, kCmpKeys, callerKeys});
    CmpSimConfig cmp;
    cmp.base = readSimConfig(cfg);

    const std::int64_t cores = cfg.getInt("cmp.cores", 1);
    if (cores < 1 || cores > 8)
        fatal("cmp.cores out of range [1, 8] (got ", cores, ")");
    cmp.cores = static_cast<int>(cores);
    cmp.sharedL2 = cfg.getBool("cmp.l2", true);
    cmp.benchmarks = splitList(cfg.getString(
        "cmp.benchmarks", cfg.getString("run.benchmark", "eon")));
    if (cmp.benchmarks.empty())
        fatal("cmp.benchmarks names no benchmarks");

    CmpMigrationConfig& mig = cmp.migration;
    mig.enabled = cfg.getBool("cmp.migration.enabled", false);
    mig.marginK =
        cfg.getDouble("cmp.migration.margin", mig.marginK);
    mig.minGapK =
        cfg.getDouble("cmp.migration.min_gap", mig.minGapK);
    const std::int64_t cooldown =
        cfg.getInt("cmp.migration.cooldown_intervals",
                   static_cast<std::int64_t>(
                       mig.cooldownIntervals));
    if (cooldown < 0) {
        fatal("cmp.migration.cooldown_intervals must be >= 0 "
              "(got ", cooldown, ")");
    }
    mig.cooldownIntervals = static_cast<std::uint64_t>(cooldown);
    const std::int64_t stall = cfg.getInt(
        "cmp.migration.stall_cycles",
        static_cast<std::int64_t>(mig.baseStallCycles));
    if (stall < 0) {
        fatal("cmp.migration.stall_cycles must be >= 0 (got ",
              stall, ")");
    }
    mig.baseStallCycles = static_cast<std::uint64_t>(stall);
    const std::int64_t bus = cfg.getInt(
        "cmp.migration.bytes_per_cycle",
        static_cast<std::int64_t>(mig.busBytesPerCycle));
    if (bus < 1) {
        fatal("cmp.migration.bytes_per_cycle must be >= 1 (got ",
              bus, ")");
    }
    mig.busBytesPerCycle = static_cast<std::uint64_t>(bus);

    CmpStackConfig& stack = cmp.stack;
    stack.dram = cfg.getBool("stack.dram", false);
    stack.dramEnergyPerAccess =
        cfg.getDouble("stack.dram_energy_per_access",
                      stack.dramEnergyPerAccess);
    stack.dramStaticW =
        cfg.getDouble("stack.dram_static_w", stack.dramStaticW);

    cmp.validate();
    return cmp;
}

Config
configFromCmpConfig(const CmpSimConfig& cmp)
{
    const SimConfig& sim = cmp.base;
    Config cfg;
    cfg.set("floorplan.variant", variantKey(sim.variant));
    cfg.setDouble("thermal.time_scale", sim.thermal.timeScale);
    cfg.setDouble("thermal.ambient", sim.thermal.ambient);
    cfg.setDouble("thermal.convection", sim.thermal.rConvection);
    cfg.setInt("thermal.max_cached_propagators",
               sim.thermal.maxCachedPropagators);
    cfg.setDouble("thermal.r_stack_bond",
                  sim.thermal.rStackBondPerArea);
    cfg.setDouble("thermal.stacked_die_thickness",
                  sim.thermal.stackedDieThickness);
    cfg.setInt("sim.sample_interval",
               static_cast<std::int64_t>(sim.sampleIntervalCycles));
    cfg.setBool("sim.warm_start", sim.warmStart);

    const DtmConfig& dtm = sim.dtm;
    cfg.setDouble("dtm.max_temperature", dtm.maxTemperature);
    cfg.setBool("dtm.toggling", dtm.iqToggling);
    cfg.setDouble("dtm.toggle_delta", dtm.toggleDeltaK);
    cfg.setBool("dtm.alu_turnoff", dtm.aluTurnoff);
    cfg.setBool("dtm.regfile_turnoff", dtm.regfileTurnoff);
    cfg.setBool("dtm.round_robin", dtm.roundRobin);
    cfg.setBool("dtm.fetch_throttling", dtm.fetchThrottling);
    cfg.setDouble("dtm.cooling_time", dtm.coolingTime);
    cfg.set("dtm.mapping", portMappingName(dtm.mapping));

    cfg.setInt("cmp.cores", cmp.cores);
    cfg.setBool("cmp.l2", cmp.sharedL2);
    std::string benchmarks;
    for (const std::string& b : cmp.benchmarks)
        benchmarks += (benchmarks.empty() ? "" : ",") + b;
    cfg.set("cmp.benchmarks", benchmarks);

    const CmpMigrationConfig& mig = cmp.migration;
    cfg.setBool("cmp.migration.enabled", mig.enabled);
    cfg.setDouble("cmp.migration.margin", mig.marginK);
    cfg.setDouble("cmp.migration.min_gap", mig.minGapK);
    cfg.setInt("cmp.migration.cooldown_intervals",
               static_cast<std::int64_t>(mig.cooldownIntervals));
    cfg.setInt("cmp.migration.stall_cycles",
               static_cast<std::int64_t>(mig.baseStallCycles));
    cfg.setInt("cmp.migration.bytes_per_cycle",
               static_cast<std::int64_t>(mig.busBytesPerCycle));

    cfg.setBool("stack.dram", cmp.stack.dram);
    cfg.setDouble("stack.dram_energy_per_access",
                  cmp.stack.dramEnergyPerAccess);
    cfg.setDouble("stack.dram_static_w", cmp.stack.dramStaticW);
    return cfg;
}

} // namespace tempest
