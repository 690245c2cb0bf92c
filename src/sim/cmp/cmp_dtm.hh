/**
 * @file
 * Cross-core dynamic thermal management for the CMP layer.
 *
 * Within one core the paper's DTM balances utilization across
 * duplicated resources (issue-queue halves, ALU copies, register
 * files). Across cores a CMP has one more lever: the *placement* of
 * jobs on tiles. CmpDtmPolicy implements thermal-aware
 * checkpoint-assisted job migration — when one tile runs close to
 * the thermal threshold while another tile is measurably cooler,
 * the hot tile's job context is serialized, shipped over the
 * interconnect, and resumed on the cool tile (and vice versa: the
 * two jobs swap places). The transfer is priced in cycles from the
 * serialized byte count, so migration is never free; a cooldown
 * keeps the policy from thrashing jobs back and forth every
 * sampling interval.
 *
 * The policy itself is deliberately pure: it sees per-tile hottest
 * temperatures and eligibility flags and returns a decision. The
 * CmpSimulator owns the mechanics (serialize, restore, rebind,
 * stall) so the policy stays trivially checkpointable.
 */

#ifndef TEMPEST_SIM_CMP_CMP_DTM_HH
#define TEMPEST_SIM_CMP_CMP_DTM_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace tempest
{

class StateWriter;
class StateReader;

/** Knobs for cross-core job migration. */
struct CmpMigrationConfig
{
    /** Master switch; with false the policy never migrates. */
    bool enabled = false;

    /**
     * A tile is migration-hot when its hottest block is within
     * this margin of the DTM threshold (K). The within-core DTM
     * fires *at* the threshold; migration triggers slightly below
     * it, so placement moves before the stop-go hammer falls.
     */
    Kelvin marginK = 2.0;

    /** The destination tile must be at least this much cooler than
     * the source (K), or the swap is not worth the transfer. */
    Kelvin minGapK = 1.0;

    /** Sampling intervals to wait between migrations (thrash
     * guard); counts down once per evaluation. */
    std::uint64_t cooldownIntervals = 20;

    /** Fixed cost per migration (drain, invalidate, redirect). */
    std::uint64_t baseStallCycles = 20000;

    /** Interconnect bandwidth used to price the serialized job
     * context: stall = base + bytes / bytesPerCycle. */
    std::uint64_t busBytesPerCycle = 64;

    /** fatal() on out-of-range values. */
    void validate() const;
    bool operator==(const CmpMigrationConfig&) const = default;
};

/** Migration counters, reported alongside per-core DtmStats. */
struct CmpDtmStats
{
    /** Completed job swaps (each moves two job contexts). */
    std::uint64_t migrations = 0;
    /** Total stall cycles charged across both endpoints. */
    std::uint64_t migrationStallCycles = 0;
    /** Serialized job-context bytes shipped over the bus. */
    std::uint64_t bytesMoved = 0;
    /** Policy evaluations (one per sampling interval). */
    std::uint64_t evaluations = 0;
};

/** Thermal-aware job-placement policy over CMP tiles. */
class CmpDtmPolicy
{
  public:
    /** What the simulator should do this interval. */
    struct Decision
    {
        bool migrate = false;
        int hotTile = -1;  ///< source (near-threshold) tile
        int coolTile = -1; ///< destination (coolest eligible) tile
    };

    CmpDtmPolicy(const CmpMigrationConfig& config,
                 Kelvin max_temperature, int tiles);

    /**
     * Evaluate one sampling interval. `tile_hottest[t]` is the
     * hottest sensor reading on tile t this interval;
     * `eligible[t]` is non-zero when tile t can participate (its
     * job is not mid-stall). Deterministic: a pure function of the
     * arguments and the cooldown counter.
     */
    Decision evaluate(const std::vector<Kelvin>& tile_hottest,
                      const std::vector<std::uint8_t>& eligible);

    /** Record a completed migration (simulator calls back with the
     * measured byte count and the per-pair stall charge). */
    void recordMigration(std::uint64_t bytes,
                         std::uint64_t stall_cycles);

    const CmpDtmStats& stats() const { return stats_; }
    void resetStats() { stats_ = CmpDtmStats{}; }

    /** Serialize dynamic state (cooldown, counters). */
    void saveState(StateWriter& w) const;
    /** Restore state saved by saveState(). */
    void loadState(StateReader& r);

  private:
    CmpMigrationConfig config_; // ckpt:skip(config, not state)
    Kelvin maxTemperature_;     // ckpt:skip(config, not state)
    int tiles_;                 // ckpt:skip(geometry, not state)

    /** Evaluations remaining before the next migration may fire. */
    std::uint64_t cooldown_ = 0;
    CmpDtmStats stats_;
};

} // namespace tempest

#endif // TEMPEST_SIM_CMP_CMP_DTM_HH
