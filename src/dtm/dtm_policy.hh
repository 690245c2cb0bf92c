/**
 * @file
 * Dynamic thermal management — the paper's contribution.
 *
 * ResourceBalancingDtm implements the three balancing techniques
 * plus the temporal fallback, each independently selectable so the
 * experiments can compose exactly the configurations of §4:
 *
 * - Activity toggling (§2.1): flip an issue queue's head/tail
 *   configuration when the activity-heavy half runs more than
 *   toggleDeltaK hotter than the other half (0.5 K in the paper),
 *   before either half overheats.
 * - Fine-grain turnoff of ALUs (§2.2): mark an overheated ALU busy
 *   so its select tree grants nothing; re-enable with hysteresis.
 * - Fine-grain turnoff of register-file copies (§2.3): when a copy
 *   crosses its (slightly lowered) threshold, mark busy the ALUs
 *   mapped to it; writes continue during cooling (the paper's
 *   first stale-copy solution).
 * - Temporal fallback: if an issue-queue half overheats, or every
 *   copy of a turnoff-capable resource is off, or any other
 *   monitored block overheats, stall the processor for the thermal
 *   cooling time (Pentium-4-style stop-go).
 *
 * The baseline configuration disables all three balancing
 * techniques, leaving only the temporal fallback.
 */

#ifndef TEMPEST_DTM_DTM_POLICY_HH
#define TEMPEST_DTM_DTM_POLICY_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "thermal/floorplan.hh"
#include "uarch/core.hh"
#include "uarch/regfile.hh"

namespace tempest
{

class StateWriter;
class StateReader;

/** Which techniques are active and their thresholds. */
struct DtmConfig
{
    /** Critical thermal threshold (Table 2: 358 K). */
    Kelvin maxTemperature = 358.0;

    /** Enable issue-queue activity toggling. */
    bool iqToggling = false;
    /** Half-to-half difference that triggers a toggle (0.5 K). */
    Kelvin toggleDeltaK = 0.5;
    /**
     * Toggle only when the hot half is within this margin of the
     * critical threshold. The wrap-around compaction wires make
     * the toggled configuration cost energy (Table 3's long
     * compaction), so toggling far below the threshold wastes
     * power; near the threshold it converts the half-to-half
     * temperature gap into stall-free headroom. The default
     * (effectively infinite) reproduces the paper's policy of
     * toggling on the 0.5 K differential alone; the ablation
     * bench sweeps this gate.
     */
    Kelvin toggleProximityK = 1.0e9;

    /** Enable fine-grain ALU / FP-adder turnoff. */
    bool aluTurnoff = false;

    /** Enable fine-grain register-file copy turnoff. */
    bool regfileTurnoff = false;
    /**
     * Copies turn off slightly below the critical threshold so
     * continued writes cannot push them past it (§2.3).
     */
    Kelvin regfileTurnoffMarginK = 0.5;

    /** Ideal round-robin select (upper bound comparator, §4.2). */
    bool roundRobin = false;

    /** Register-port mapping (§2.3 / Figure 4). */
    PortMapping mapping = PortMapping::Priority;

    /** Turned-off units re-enable this far below their turnoff
     * point, avoiding on/off oscillation at the threshold. */
    Kelvin reenableHysteresisK = 1.5;

    /** Stall duration after an unmanageable overheat (Table 2:
     * 10 ms; scaled by the thermal time scale by the simulator). */
    Seconds coolingTime = 10e-3;

    /**
     * Fetch throttling (related-work comparator in the spirit of
     * Skadron et al.'s fetch gating [15]): when any monitored
     * block comes within fetchThrottleMarginK of the threshold,
     * fetch is slowed to one cycle in fetchThrottleInterval; full
     * speed resumes below the margin minus the hysteresis. The
     * hard threshold still engages the stop-go fallback.
     */
    bool fetchThrottling = false;
    Kelvin fetchThrottleMarginK = 1.0;
    int fetchThrottleInterval = 4;

    bool operator==(const DtmConfig&) const = default;
};

/** What the simulator must do after a sensor sample. */
enum class DtmAction
{
    Continue,   ///< keep executing
    GlobalStall ///< stop-go: stall for the cooling time
};

/** Lifetime statistics of one DTM instance. */
struct DtmStats
{
    std::uint64_t iqToggles = 0;
    std::uint64_t aluTurnoffEvents = 0;
    std::uint64_t fpAdderTurnoffEvents = 0;
    std::uint64_t regfileTurnoffEvents = 0;
    std::uint64_t globalStalls = 0;
    std::uint64_t fetchThrottleEvents = 0;
};

/** The paper's combined thermal controller. */
class ResourceBalancingDtm
{
  public:
    /**
     * @param config technique selection and thresholds
     * @param core the pipeline to steer
     * @param floorplan used to resolve sensor indices
     */
    ResourceBalancingDtm(const DtmConfig& config, OooCore& core,
                         const Floorplan& floorplan);

    /**
     * Act on one sensor sample (temperatures indexed by floorplan
     * block, as produced by SensorBank::readAll).
     * @return Continue, or GlobalStall if the temporal fallback
     *         must engage.
     */
    DtmAction sample(const std::vector<Kelvin>& temps);

    /**
     * Same policy evaluation with the hottest block temperature
     * already reduced by the caller (the simulator's batched
     * interval pass computes it while reading the sensors, so the
     * fetch-throttle comparator need not rescan the vector).
     */
    DtmAction sample(const std::vector<Kelvin>& temps,
                     Kelvin hottest);

    const DtmStats& stats() const { return stats_; }
    const DtmConfig& config() const { return config_; }

    /** @return true if the given int ALU is currently turned off
     * because its register-file copy is cooling (for tests). */
    bool aluOffForRegfile(int alu) const;

    /** Zero the lifetime statistics (warm-fork measurement reset;
     * turnoff state is left as-is). */
    void resetStats() { stats_ = DtmStats{}; }

    /** Serialize turnoff bookkeeping and statistics. */
    void saveState(StateWriter& w) const;

    /** Restore state saved by saveState(). */
    void loadState(StateReader& r);

  private:
    /** Toggle handling for one queue given its two half blocks. */
    void sampleQueue(IssueQueue& iq, const std::vector<Kelvin>& t,
                     const int half_blocks[2]);

    DtmConfig config_; // ckpt:skip(config, supplied by the restoring run)
    OooCore& core_;    // ckpt:skip(wiring reference, serialized by saveEngineContext)

    // Cached floorplan indices (rebuilt from the floorplan in the
    // constructor, never mutated during a run).
    int intQHalf_[2];  // ckpt:skip(rebuildable floorplan cache)
    int fpQHalf_[2];   // ckpt:skip(rebuildable floorplan cache)
    int intExec_[kMaxIntAlus];      // ckpt:skip(rebuildable floorplan cache)
    int fpAdd_[kMaxFpAdders];       // ckpt:skip(rebuildable floorplan cache)
    int intReg_[kMaxRegfileCopies]; // ckpt:skip(rebuildable floorplan cache)
    std::vector<int> otherMonitored_; // ckpt:skip(rebuildable floorplan cache)

    int numIntAlus_;
    int numFpAdders_;
    int numRegCopies_;

    bool regCopyOff_[kMaxRegfileCopies] = {};
    std::uint8_t aluUnitOff_[kMaxIntAlus] = {};
    std::uint8_t fpUnitOff_[kMaxFpAdders] = {};

    DtmStats stats_;
};

} // namespace tempest

#endif // TEMPEST_DTM_DTM_POLICY_HH
