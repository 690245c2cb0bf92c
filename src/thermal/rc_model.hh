/**
 * @file
 * HotSpot-like compact thermal RC network.
 *
 * One node per floorplan block (silicon layer), plus a heat
 * spreader node and a heatsink node coupled to a fixed ambient
 * through the package's convection resistance. Each block couples
 * vertically to the spreader (die conduction + constriction) and
 * laterally to every block it shares a floorplan edge with. The
 * lateral resistances are several times the vertical ones for
 * small blocks, which yields the paper's key physical property:
 * adjacent resource copies can sit several Kelvin apart.
 *
 * Transient integration is the exponential integrator
 * (ExpmSolver): exact for piecewise-constant power, one dense
 * matvec per step. Steady states come from the LU factors cached
 * at construction. test_expm_solver checks it against an
 * explicit-Euler reference over the same G and C.
 *
 * `timeScale` scales every capacitance, compressing the thermal
 * dynamics so short simulations traverse multiple time constants
 * while keeping the sampling-interval : time-constant :
 * cooling-time ratios intact (see DESIGN.md §1).
 */

#ifndef TEMPEST_THERMAL_RC_MODEL_HH
#define TEMPEST_THERMAL_RC_MODEL_HH

#include <optional>
#include <vector>

#include "common/types.hh"
#include "thermal/expm_solver.hh"
#include "thermal/floorplan.hh"

namespace tempest
{

class StateWriter;
class StateReader;

/** Package and material parameters. */
struct ThermalParams
{
    Meter dieThickness = 0.15e-3;   ///< HotSpot-class thinned die
    double kSilicon = 100.0;        ///< W/(m K)
    /**
     * Lumped volumetric heat capacity. Physical silicon is
     * 1.75e6 J/(m^3 K); HotSpot-style compact models lump the
     * interface layers and local spreader volume into the block
     * node, raising the effective value (factor ~4 here) so block
     * time constants land in the low-millisecond range the paper
     * reports.
     */
    double cvSilicon = 7.0e6;

    /**
     * Thermal-interface material between die and spreader,
     * expressed as resistance times area (K m^2/W). Scaling with
     * 1/A makes small blocks' vertical paths dominate their
     * lateral ones — the paper's key physical premise.
     */
    double rTimPerArea = 1.0e-6;

    double kSpreader = 400.0;       ///< copper
    Meter spreaderThickness = 0.5e-3;
    double cvSpreader = 3.45e6;
    double spreaderAreaFactor = 1.0; ///< spreader area / die area

    /** Spreader-to-sink conduction (Table 2: 6.9 mm sink). */
    KelvinPerWatt rSpreaderSink = 0.05;
    /** Sink-to-ambient convection (Table 2: 0.8 K/W). */
    KelvinPerWatt rConvection = 0.8;
    /**
     * Effective package heat capacity. Together with the 0.8 K/W
     * convection this gives the ~10 ms package time constant the
     * paper bases its thermal cooling time on; the package is the
     * slow integrator that sets the stop-go duty cycle.
     */
    JoulePerKelvin cSink = 0.0125;

    Kelvin ambient = 318.15; ///< 45 C, HotSpot's default

    /**
     * Stacked-die coupling (CoMeT-style 3D scenarios): blocks on
     * layer >= 1 conduct down through half their own die, the
     * bond/TSV interface, and half the die beneath, over the
     * footprint overlap area. Unused by single-layer floorplans.
     */
    double rStackBondPerArea = 4.0e-6; ///< K m^2/W
    Meter stackedDieThickness = 0.1e-3; ///< thinned DRAM die

    /**
     * Propagator-cache capacity of the expm solver. Each cached
     * Phi is a dense (blocks+2)^2 double matrix, so CMP floorplans
     * may want a smaller cap (or larger, for sweeps that mix many
     * partial-chunk dts). Must be >= 1.
     */
    int maxCachedPropagators = 16;

    /** Thermal threshold (Table 2: 358 K). Carried here for
     * convenience; enforcement is the DTM layer's job. */
    Kelvin maxTemperature = 358.0;

    /** Capacitance compression for short simulations. */
    double timeScale = 1.0;

    void validate() const;
    bool operator==(const ThermalParams&) const = default;
};

/** The RC network and its solvers. */
class RcModel
{
  public:
    RcModel(const Floorplan& floorplan, const ThermalParams& params);

    int numBlocks() const { return numBlocks_; }

    /** Set the current power of one block (W). */
    void setPower(int block, Watt power);

    /** Set all block powers at once. */
    void setPowers(const std::vector<Watt>& powers);

    Watt power(int block) const;

    /** Sum of all block powers. */
    Watt totalPower() const;

    /** Advance the transient solution by dt, exactly for the
     * current (constant) powers. */
    void step(Seconds dt);

    /** Jump to the steady state for the current powers. */
    void solveSteadyState();

    Kelvin temperature(int block) const;
    Kelvin spreaderTemperature() const;
    Kelvin sinkTemperature() const;

    /** Force every node to one temperature (e.g. ambient). */
    void setAllTemperatures(Kelvin t);

    /** Force one block node's temperature (warm-start clamping). */
    void setTemperature(int block, Kelvin t);

    /** Vertical block-to-spreader resistance (O(1) lookup). */
    KelvinPerWatt verticalResistance(int block) const;

    /** Lateral resistance between two blocks; 0 conductance
     * (infinite resistance) if not adjacent. O(1) lookup. */
    KelvinPerWatt lateralResistance(int a, int b) const;

    /** The exponential-integrator backend (always built; also
     * serves the LU-backed steady-state solves). */
    ExpmSolver& expmSolver() { return *expm_; }
    const ExpmSolver& expmSolver() const { return *expm_; }

    const ThermalParams& params() const { return params_; }

    /**
     * Serialize node temperatures and block powers. The network
     * itself (conductances, capacitances, LU factors, propagator
     * cache) is a pure function of floorplan + params and is
     * rebuilt by the constructor, not checkpointed.
     */
    void saveState(StateWriter& w) const;

    /** Restore state; the node/block counts must match. */
    void loadState(StateReader& r);

  private:
    // Everything except temp_/power_ is assembled once in the
    // constructor from (floorplan, params) and never mutated, so
    // only the dynamic state travels in a checkpoint; the restoring
    // run rebuilds the rest from its own config.
    ThermalParams params_; // ckpt:skip(config, supplied by the restoring run)
    int numBlocks_;
    int spreaderNode_;     // ckpt:skip(derived from the floorplan)
    int sinkNode_;         // ckpt:skip(derived from the floorplan)
    int numNodes_;

    std::vector<Kelvin> temp_;
    std::vector<Watt> power_;          ///< block nodes only

    // Per-block resistance lookups built in the constructor so
    // the DTM/floorplan setup paths avoid O(edges) scans.
    // ckpt:skip(precomputed lookup table)
    std::vector<KelvinPerWatt> verticalRes_;   ///< per block
    // ckpt:skip(precomputed lookup table)
    std::vector<KelvinPerWatt> lateralRes_;    ///< blocks x blocks

    /** Exponential-integrator backend (holds the LU of G). */
    std::optional<ExpmSolver> expm_; // ckpt:skip(rebuilt from G/C matrices; per-dt cache is a pure accelerator)
};

} // namespace tempest

#endif // TEMPEST_THERMAL_RC_MODEL_HH
