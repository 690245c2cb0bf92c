/**
 * @file
 * Configuration and result types of one single-core simulation:
 * what a Simulator (and each core of a CmpSimulator) is built from,
 * and what it reports at the end of a run.
 */

#ifndef TEMPEST_SIM_SIM_CONFIG_HH
#define TEMPEST_SIM_SIM_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "dtm/dtm_policy.hh"
#include "power/energy_params.hh"
#include "thermal/floorplan.hh"
#include "thermal/rc_model.hh"
#include "uarch/activity.hh"
#include "uarch/pipeline_config.hh"

namespace tempest
{

/** Everything needed to instantiate one simulation. */
struct SimConfig
{
    PipelineConfig pipeline;
    EnergyParams energy;
    ThermalParams thermal;
    DtmConfig dtm;
    FloorplanVariant variant = FloorplanVariant::Baseline;

    /** Sensor sampling interval (paper: 100,000 cycles). */
    std::uint64_t sampleIntervalCycles = 100000;

    /** Sensor quantization (0 = ideal). */
    Kelvin sensorQuantum = 0.0;

    /** Experiment-level seed, combined with the profile seed. */
    std::uint64_t runSeed = 1;

    /** Start from the steady state of the first interval's power
     * (clamped at the threshold) instead of ambient. */
    bool warmStart = true;

    bool operator==(const SimConfig&) const = default;
};

/** Per-block temperature summary. */
struct BlockTempStats
{
    std::string name;
    Kelvin avg = 0;  ///< average over non-stalled samples
    Kelvin max = 0;  ///< maximum over all samples
};

/** End-of-run results. */
struct SimResult
{
    std::string benchmark;
    double ipc = 0;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t stallCycles = 0;
    DtmStats dtm;
    std::vector<BlockTempStats> blocks;
    ActivityRecord activity; ///< totals over the whole run

    /** Temperature stats of a named block; fatal if absent. */
    const BlockTempStats& block(const std::string& name) const;
};

} // namespace tempest

#endif // TEMPEST_SIM_SIM_CONFIG_HH
