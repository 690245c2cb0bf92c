/**
 * @file
 * The single-core closed-loop thermal simulator: one out-of-order
 * core, the power model, the RC thermal network, the sensor bank,
 * and the DTM policy.
 *
 * Simulator is a facade over a CmpSimulator with one core and no
 * stacked DRAM, whose step() is the only implementation of the
 * paper's loop (§3): execute a 100,000-cycle sampling interval,
 * convert its activity to per-block power, advance the thermal
 * network, read the sensors, and let the DTM act. A GlobalStall
 * freezes the core for exactly the thermal cooling time (advanced
 * in sample-interval chunks with clock-gated power, plus a final
 * partial chunk for the remainder). Initial temperatures come from
 * a steady-state solve of the first interval's power, clamped to
 * the thermal threshold, so runs begin thermally warmed.
 */

#ifndef TEMPEST_SIM_SIMULATOR_HH
#define TEMPEST_SIM_SIMULATOR_HH

#include <cstdint>
#include <string>

#include "sim/cmp/cmp_simulator.hh"
#include "sim/sim_config.hh"
#include "sim/trace.hh"
#include "workload/profile.hh"

namespace tempest
{

/** Closed-loop simulator for one benchmark run. */
class Simulator
{
  public:
    Simulator(const SimConfig& config,
              const BenchmarkProfile& profile);

    /**
     * Run until the core has advanced `max_cycles` cycles
     * (including stall cycles).
     */
    SimResult
    run(std::uint64_t max_cycles)
    {
        return cmp_.run(max_cycles).cores.front();
    }

    /**
     * Advance whole sampling intervals until the core cycle
     * reaches `end_cycle` (an absolute cycle, so checkpointed runs
     * can continue toward the same endpoint). Intervals are
     * atomic: a cooling stall triggered inside one completes
     * before this returns, exactly as in run().
     */
    void runTo(std::uint64_t end_cycle) { cmp_.runTo(end_cycle); }

    /** Build the end-of-run result from the measured-region
     * statistics (everything since the last resetMeasurement(),
     * or since construction). */
    SimResult
    result() const
    {
        return cmp_.result().cores.front();
    }

    /** Current core cycle (checkpoint loop bookkeeping). */
    std::uint64_t cycle() const { return cmp_.cycle(); }

    /**
     * Serialize the complete simulation state as a versioned
     * checkpoint in the CMP layout (see DESIGN.md §11). The
     * returned bytes restore bit-identically via
     * restoreCheckpoint().
     */
    std::string
    saveCheckpoint() const
    {
        return cmp_.saveCheckpoint();
    }

    /**
     * Restore a checkpoint produced by saveCheckpoint(). The
     * simulator must have been constructed with the same
     * benchmark, pipeline geometry, floorplan variant, and run
     * seed; mismatches are fatal(). Config-derived controls
     * (round-robin select, register-port mapping, fetch throttle
     * when disabled) are re-asserted from *this* simulator's
     * config afterwards, which is what lets a warm-state fork
     * restore a neutral warm-up snapshot under its own DTM
     * configuration.
     */
    void
    restoreCheckpoint(const std::string& bytes)
    {
        cmp_.restoreCheckpoint(bytes);
    }

    /**
     * Zero the measured-region statistics (activity totals, block
     * temperature stats, DTM counters) and make result() report
     * cycles/instructions/IPC relative to this point. Used by
     * warm-state forking to exclude the shared warm-up prefix.
     */
    void resetMeasurement() { cmp_.resetMeasurement(); }

    /** Access to the live pieces (examples, tests). */
    OooCore& core() { return cmp_.core(0); }
    RcModel& thermalModel() { return cmp_.thermalModel(); }
    ResourceBalancingDtm& dtm() { return cmp_.dtm(0); }
    const Floorplan& floorplan() const { return cmp_.floorplan(); }
    const SimConfig& config() const { return cmp_.config().base; }

    /** Attach a trace recorder (not owned); nullptr detaches. */
    void setTrace(ThermalTrace* trace) { cmp_.setTrace(trace); }

  private:
    CmpSimulator cmp_;
};

} // namespace tempest

#endif // TEMPEST_SIM_SIMULATOR_HH
