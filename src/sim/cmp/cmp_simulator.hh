/**
 * @file
 * Multicore (CMP) closed-loop thermal simulator.
 *
 * N single-core engines — each the same core + per-core DTM the
 * paper studies — run in lockstep on ONE shared thermal RC network
 * built from a laterally tiled floorplan (Floorplan::cmpTiled):
 * per-core tiles coupled at shared edges, an optional shared-L2
 * strip along the bottom, one spreader and sink for the whole die,
 * and optionally a stacked DRAM die above the cores whose banks
 * heat the blocks beneath them through the bond layer.
 *
 * The engines advance on one thermal clock: every step spans the
 * same cycle range on every core, bounded by the sampling interval
 * and by any in-progress cooling/migration stall so partial chunks
 * land on shared thermal-step boundaries. step() is the only
 * implementation of the paper's closed loop: with cores == 1 and
 * no DRAM layer the die is the single-core floorplan verbatim, and
 * the single-core Simulator is a facade over exactly that
 * configuration.
 *
 * Jobs are bound to tiles through a placement permutation; the
 * cross-core CmpDtmPolicy may swap a near-threshold tile's job
 * with the coolest tile's. The swap is checkpoint-assisted: both
 * job contexts are serialized through the StateWriter visitor and
 * restored (exercising the real save/load path mid-run), and the
 * serialized byte count prices the transfer stall.
 */

#ifndef TEMPEST_SIM_CMP_CMP_SIMULATOR_HH
#define TEMPEST_SIM_CMP_CMP_SIMULATOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dtm/dtm_policy.hh"
#include "power/power_model.hh"
#include "sim/cmp/cmp_dtm.hh"
#include "sim/sim_config.hh"
#include "thermal/rc_model.hh"
#include "thermal/sensor.hh"
#include "uarch/core.hh"
#include "workload/profile.hh"

namespace tempest
{

class ThermalTrace;

/** Stacked-DRAM (3D) scenario knobs. */
struct CmpStackConfig
{
    /** Stack one DRAM bank over each core tile (layer 1). */
    bool dram = false;

    /**
     * Energy per DRAM access (J). An access here is one L2 miss;
     * the default covers an activate + burst on an old-node DRAM
     * die, deliberately on the hot side so memory-bound workloads
     * (art, mcf) make the stacked die a real heat source.
     */
    Joule dramEnergyPerAccess = 40.0e-9;

    /** Static (refresh + peripheral) power per bank (W). */
    Watt dramStaticW = 1.0;

    /** fatal() on out-of-range values. */
    void validate() const;
    bool operator==(const CmpStackConfig&) const = default;
};

/** Everything needed to instantiate one CMP simulation. */
struct CmpSimConfig
{
    /** Per-core engine config (pipeline, energy, thermal, DTM,
     * floorplan variant, sampling, seed). The thermal params and
     * DTM threshold also govern the shared die. */
    SimConfig base;

    /** Number of core tiles (1..8). */
    int cores = 1;

    /** Insert the shared-L2 strip (effective when cores >= 2). */
    bool sharedL2 = true;

    /**
     * Benchmark per core, by SPEC2000 profile name. One entry is
     * replicated across all cores; otherwise the length must equal
     * `cores`. Empty defaults to "eon" on every core.
     */
    std::vector<std::string> benchmarks;

    CmpMigrationConfig migration;
    CmpStackConfig stack;

    /** fatal() on inconsistent values. */
    void validate() const;
    bool operator==(const CmpSimConfig&) const = default;
};

/** End-of-run results for one CMP simulation. */
struct CmpResult
{
    /** Per-job results (indexed by job, not tile). `cycles` counts
     * each core's own clock including stalls, from its measurement
     * origin (see CmpSimulator::resetMeasurement). */
    std::vector<SimResult> cores;

    /** Shared blocks (L2 strip, DRAM banks), in floorplan order. */
    std::vector<BlockTempStats> shared;

    /** Cross-core migration counters. */
    CmpDtmStats migration;

    /** Final job placement: tileOfJob[j] is job j's tile. */
    std::vector<int> tileOfJob;

    /** Thermal-clock cycle at the end of the run (== every core's
     * cycle; not relative to a measurement origin). */
    std::uint64_t cycles = 0;
};

/** FNV-1a over every CmpResult field (golden comparisons). */
std::uint64_t hashCmpResult(const CmpResult& r);

/** Lockstep N-core simulator over one shared thermal network. */
class CmpSimulator
{
  public:
    /** Look up each of `config.benchmarks` with spec2000(). */
    explicit CmpSimulator(const CmpSimConfig& config);

    /**
     * Run `profiles` (one replicated across all cores, or one per
     * core) instead of `config.benchmarks`, which is overwritten
     * with the profile names.
     */
    CmpSimulator(const CmpSimConfig& config,
                 const std::vector<BenchmarkProfile>& profiles);

    /** Run `max_cycles` thermal-clock cycles and build results. */
    CmpResult run(std::uint64_t max_cycles);

    /**
     * Advance lockstep steps until the thermal clock reaches
     * `end_cycle`. Stalls are atomic: a cooling or migration stall
     * in progress drains to completion before this returns, so
     * piecewise runTo calls (checkpoint loops) reproduce a
     * monolithic run bit-exactly.
     */
    void runTo(std::uint64_t end_cycle);

    /**
     * Advance exactly one lockstep step (one sampling interval, or
     * the shorter chunk an in-progress stall dictates). Lets tests
     * and tools observe — and checkpoint — mid-stall states that
     * runTo()'s atomic drain would step over.
     */
    void stepOnce();

    /** Build end-of-run results from the accumulated statistics. */
    CmpResult result() const;

    /**
     * Zero the measured-region statistics (activity totals,
     * per-block and shared temperature stats, per-core DTM
     * counters) and move every core's measurement origin to its
     * current cycle and commit count, so result() reports each
     * core relative to this point. Used by warm-state forking to
     * exclude the shared warm-up prefix. Migration counters and
     * the thermal clock (CmpResult::cycles) are not reset.
     */
    void resetMeasurement();

    /** Current thermal-clock cycle. */
    std::uint64_t cycle() const { return clockCycle_; }

    /** Serialize the complete CMP state (every engine, the shared
     * thermal network, sensors, placement, migration policy) as a
     * versioned checkpoint; restores bit-identically. */
    std::string saveCheckpoint() const;

    /** Restore a checkpoint produced by saveCheckpoint(). The
     * simulator must match in core count, benchmarks, seeds, and
     * floorplan geometry; mismatches are fatal(). */
    void restoreCheckpoint(const std::string& bytes);

    /** Access for tests and tools. */
    const Floorplan& floorplan() const { return plan_; }
    const CmpSimConfig& config() const { return config_; }
    RcModel& thermalModel() { return *rc_; }
    OooCore& core(int job) { return *engine(job).core; }
    ResourceBalancingDtm& dtm(int job) { return *engine(job).dtm; }
    const CmpDtmStats& migrationStats() const;
    const std::vector<int>& tileOfJob() const { return tileOfJob_; }

    /**
     * Attach a trace recorder (not owned; nullptr detaches). Every
     * step records the whole die: per-block temperature and power,
     * `stalled` when every core is stalled, and the instructions
     * committed on all cores.
     */
    void setTrace(ThermalTrace* trace) { trace_ = trace; }

  private:
    /** Per-block temperature statistics. */
    struct BlockAccum
    {
        RunningStat avg;   ///< non-stalled samples
        Kelvin maxT = 0.0; ///< includes stalled intervals
    };

    /** One job context: core, workload, per-core DTM, stats. */
    struct Engine
    {
        std::string benchmark;
        std::uint64_t seed = 0;
        // Pooled backing store for the core's hot-state arrays;
        // must outlive (so: be declared before) the core.
        Arena arena;
        std::unique_ptr<OooCore> core;
        std::unique_ptr<ResourceBalancingDtm> dtm;

        /** Stall cycles still to serve (cooling or migration). */
        std::uint64_t stallRemaining = 0;
        /** Cumulative L2 misses at the last DRAM power update. */
        std::uint64_t prevL2Misses = 0;

        ActivityRecord total;
        /** Per core-plan block, travels with the job. */
        std::vector<BlockAccum> accum;

        /** Measurement origin (resetMeasurement). */
        std::uint64_t startCycle = 0;
        std::uint64_t startCommitted = 0;
    };

    Engine&
    engine(int job)
    {
        return *engines_.at(static_cast<std::size_t>(job));
    }

    /** Advance one lockstep step of `cycles` cycles. */
    void step(std::uint64_t cycles);

    /** Serialize job j's movable context (core, workload, queues,
     * functional units, regfile, caches, per-core DTM). */
    void saveEngineContext(StateWriter& w, const Engine& e) const;
    void loadEngineContext(StateReader& r, Engine& e);

    /** Swap the jobs on two tiles, checkpoint-assisted. */
    void migrate(int hot_tile, int cool_tile);

    /** True while any engine still owes stall cycles. */
    bool anyStallPending() const;

    CmpSimConfig config_;
    Floorplan corePlan_; ///< one tile (ev6Like)
    Floorplan plan_;     ///< full CMP floorplan (cmpTiled)
    int coreBlocks_ = 0; ///< blocks per tile
    int l2Index_ = -1;   ///< shared-L2 block index, -1 if absent
    int dramBase_ = -1;  ///< first DRAM bank index, -1 if absent
    SquareMeter l2Area_ = 0.0;

    std::vector<std::unique_ptr<Engine>> engines_; ///< by job
    std::unique_ptr<PowerModel> power_; ///< shared (same config)
    std::unique_ptr<RcModel> rc_;
    std::unique_ptr<SensorBank> sensors_;
    std::unique_ptr<CmpDtmPolicy> cmpDtm_;

    std::vector<int> tileOfJob_; ///< placement permutation
    std::vector<int> jobOfTile_; ///< its inverse

    std::uint64_t clockCycle_ = 0;
    std::uint64_t coolingCycles_ = 0; ///< per GlobalStall trigger
    bool warmed_ = false;

    /** Shared blocks (L2, DRAM): averaged over every interval. */
    std::vector<BlockAccum> sharedAccum_;
    ThermalTrace* trace_ = nullptr;

    // Scratch reused across steps.
    std::vector<ActivityRecord> intervalScratch_;
    std::vector<std::uint8_t> stalledScratch_;
    std::vector<Watt> corePowerScratch_;
    std::vector<Watt> powerScratch_;
    std::vector<Kelvin> dieTempScratch_;
    std::vector<std::vector<Kelvin>> tileTempScratch_;
    std::vector<Kelvin> tileHottestScratch_;
    std::vector<std::uint8_t> eligibleScratch_;
};

} // namespace tempest

#endif // TEMPEST_SIM_CMP_CMP_SIMULATOR_HH
