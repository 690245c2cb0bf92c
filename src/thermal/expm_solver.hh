/**
 * @file
 * Exponential-integrator solver for the thermal RC network.
 *
 * The network is a constant-coefficient linear system
 *
 *     C dT/dt = -G T + u,   u = block powers + ambient injection,
 *
 * so for piecewise-constant power the transient has the closed
 * form
 *
 *     T(t + dt) = T_ss + e^{A dt} (T(t) - T_ss),
 *
 * with A = -C^{-1} G and T_ss = G^{-1} u. The solver factors G
 * once (LU with partial pivoting) and precomputes the propagator
 * Phi = e^{A dt} per distinct dt with scaling-and-squaring around
 * a Taylor core — no external dependencies. Each advance is then
 * one O(n^2) solve plus one O(n^2) matvec, independent of the
 * stiffness that forces explicit Euler into hundreds of substeps.
 * This is the same trick HotSpot-class simulators use for their
 * compact RC models.
 *
 * The propagator cache is keyed on exact dt; simulations use one
 * dt for full sampling intervals plus at most a few partial-chunk
 * dts (final cooling-stall remainders), so the cache stays tiny.
 */

#ifndef TEMPEST_THERMAL_EXPM_SOLVER_HH
#define TEMPEST_THERMAL_EXPM_SOLVER_HH

#include <cstddef>
#include <vector>

#include "common/types.hh"

namespace tempest
{

/** Exact-propagator solver over a dense conductance system. */
class ExpmSolver
{
  public:
    /**
     * @param conductance dense n x n conductance matrix G (W/K),
     *        including the ambient-coupling conductance on the
     *        diagonal of the sink row
     * @param capacitance per-node heat capacity C (J/K), all > 0
     * @param const_heat per-node constant heat inflow (W): the
     *        ambient injection, zero for non-package nodes
     * @param max_cached propagator-cache capacity (>= 1); each
     *        cached Phi costs n^2 doubles, which matters once CMP
     *        floorplans push n into the hundreds
     */
    ExpmSolver(std::vector<double> conductance,
               std::vector<double> capacitance,
               std::vector<double> const_heat,
               std::size_t max_cached = 16);

    int numNodes() const { return n_; }

    /**
     * Advance temps by dt, exactly, assuming the powers are
     * constant over the step. `powers` covers the leading nodes
     * (floorplan blocks); remaining nodes receive only
     * const_heat.
     */
    void advance(std::vector<Kelvin>& temps,
                 const std::vector<Watt>& powers, Seconds dt);

    /** temps = G^{-1}(powers + const_heat), via the cached LU. */
    void steadyState(std::vector<Kelvin>& temps,
                     const std::vector<Watt>& powers);

    /** Distinct-dt propagators currently cached (for tests). */
    int
    cachedPropagators() const
    {
        return static_cast<int>(cache_.size());
    }

    /** Cache capacity (ThermalParams::maxCachedPropagators). */
    std::size_t maxCachedPropagators() const { return maxCached_; }

    /** Memory footprint of one dense Phi matrix (n^2 doubles). */
    std::size_t
    propagatorBytes() const
    {
        return static_cast<std::size_t>(n_) *
               static_cast<std::size_t>(n_) * sizeof(double);
    }

    /** Memory currently held by the propagator cache. */
    std::size_t
    cachedPropagatorBytes() const
    {
        return cache_.size() * propagatorBytes();
    }

    /** The system as assembled, for reference integrators in
     * tests: A = -C^{-1} G (n x n, row-major), C, and the
     * constant heat inflow, so dT/dt = A T + (u + q) / C. */
    const std::vector<double>& generator() const { return negGOverC_; }
    const std::vector<double>& capacitance() const
    {
        return capacitance_;
    }
    const std::vector<double>& constHeat() const { return constHeat_; }

    /**
     * Dense matrix exponential of an n x n matrix (row-major) by
     * scaling-and-squaring with a Taylor core. Exposed for tests.
     */
    static std::vector<double> expm(const std::vector<double>& m,
                                    int n);

  private:
    struct CachedPropagator
    {
        Seconds dt;
        std::vector<double> phi;
    };

    /** Phi = e^{A dt} for this dt, computed on first use. */
    const std::vector<double>& propagatorFor(Seconds dt);

    /** Solve G x = rhs in place using the LU factors. */
    void luSolve(std::vector<double>& rhs) const;

    int n_;
    std::vector<double> lu_;   ///< packed LU factors of G
    std::vector<int> pivot_;   ///< row permutation
    std::vector<double> capacitance_;
    std::vector<double> constHeat_;
    std::vector<double> negGOverC_; ///< A = -C^{-1} G

    std::vector<CachedPropagator> cache_;
    std::size_t evictNext_ = 0;
    std::size_t maxCached_;

    // Scratch reused across advance() calls.
    std::vector<double> rhs_;
    std::vector<double> diff_;
};

} // namespace tempest

#endif // TEMPEST_THERMAL_EXPM_SOLVER_HH
