/**
 * @file
 * Config-file <-> SimConfig translation shared by the CLI driver
 * (tools/tempest_run.cc), the serve daemon (src/serve/) and the
 * process backend (src/sim/fabric/), which ships every job's
 * config as these keys. All accept the same dotted keys, so a
 * request sent to tempest_serve names exactly the simulation the
 * one-shot driver would run:
 *
 *   [run]      seed
 *   [floorplan] variant = baseline|iq|alu|regfile
 *   [dtm]      toggling, alu_turnoff, regfile_turnoff,
 *              round_robin, fetch_throttling,
 *              mapping = priority|balanced|completely-balanced,
 *              max_temperature, toggle_delta, cooling_time
 *   [thermal]  time_scale, ambient, convection,
 *              max_cached_propagators, r_stack_bond,
 *              stacked_die_thickness
 *   [sim]      sample_interval, warm_start
 *
 * The CMP layer adds (cmpConfigFromConfig):
 *
 *   [run]      benchmark (the default cmp.benchmarks)
 *   [cmp]      cores, l2, benchmarks (comma-separated, one entry
 *              replicated across cores)
 *   [cmp.migration] enabled, margin, min_gap, cooldown_intervals,
 *              stall_cycles, bytes_per_cycle
 *   [stack]    dram, dram_energy_per_access, dram_static_w
 *
 * Invalid values are fatal() (user error), including the
 * non-positive sample_interval that would otherwise wrap through
 * uint64_t and hang the interval loop. So is any key a reader does
 * not apply, naming it: a misspelled key would otherwise take its
 * default silently and run another simulation than the one named.
 */

#ifndef TEMPEST_SIM_SIM_CONFIG_IO_HH
#define TEMPEST_SIM_SIM_CONFIG_IO_HH

#include <initializer_list>
#include <string>
#include <string_view>

#include "common/config.hh"
#include "sim/cmp/cmp_simulator.hh"
#include "sim/simulator.hh"

namespace tempest
{

/** Parse a floorplan variant name; fatal on unknown names. */
FloorplanVariant parseFloorplanVariant(const std::string& name);

/** Parse a register-port mapping name; fatal on unknown names. */
PortMapping parsePortMapping(const std::string& name);

/**
 * Build a SimConfig from dotted config keys (missing keys take the
 * documented defaults). Validates ranges that would otherwise wrap
 * through unsigned conversions: sample_interval and seed must be
 * non-negative, sample_interval must be positive. fatal() on any
 * key outside the single-core list above.
 */
SimConfig simConfigFromConfig(const Config& cfg);

/**
 * Build a CmpSimConfig from dotted config keys: the base SimConfig
 * via simConfigFromConfig() plus the cmp.* / cmp.migration.* /
 * stack.* keys. cmp.benchmarks defaults to run.benchmark (itself
 * defaulting to "eon") on every core. With cmp.cores = 1 and
 * stack.dram = false the result names exactly the single-core
 * simulation of the same keys. fatal() on any key outside both
 * lists above and `callerKeys`, the keys the caller reads itself.
 */
CmpSimConfig cmpConfigFromConfig(
    const Config& cfg,
    std::initializer_list<std::string_view> callerKeys = {});

/**
 * The inverse of cmpConfigFromConfig(): every key but run.seed,
 * which parses as a non-negative int64 and so cannot carry every
 * seed (callers ship the seed on its own). Fields without a key
 * (pipeline geometry, energies, most thermal and DTM constants,
 * sensor quantum) are not rendered, so the round trip
 * cmpConfigFromConfig(configFromCmpConfig(c)) reproduces `c` only
 * when those fields hold their defaults; compare with == to tell.
 */
Config configFromCmpConfig(const CmpSimConfig& cmp);

} // namespace tempest

#endif // TEMPEST_SIM_SIM_CONFIG_IO_HH
