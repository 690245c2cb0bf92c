/**
 * @file
 * Tests for the exponential-integrator thermal solver: matrix
 * exponential sanity, steady states through the cached LU,
 * agreement with the explicit-Euler oracle, bit-level determinism,
 * and the per-dt propagator cache.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/log.hh"
#include "thermal/expm_solver.hh"
#include "thermal/rc_model.hh"

namespace tempest
{
namespace
{

Floorplan
twoBlocks()
{
    Floorplan fp;
    fp.addBlock("a", 0, 0, 1e-3, 1e-3);
    fp.addBlock("b", 1e-3, 0, 1e-3, 1e-3);
    return fp;
}

TEST(ExpmSolver, ExpmOfZeroIsIdentity)
{
    const std::vector<double> zero(9, 0.0);
    const std::vector<double> e = ExpmSolver::expm(zero, 3);
    for (int r = 0; r < 3; ++r) {
        for (int c = 0; c < 3; ++c)
            EXPECT_DOUBLE_EQ(e[static_cast<std::size_t>(r) * 3 + c],
                             r == c ? 1.0 : 0.0);
    }
}

TEST(ExpmSolver, ExpmMatchesScalarExponential)
{
    // 1x1 matrices reduce to the scalar exponential, including a
    // stiff decay that exercises the scaling-and-squaring path.
    for (const double a : {-0.3, -3.7, -5000.0}) {
        const std::vector<double> e =
            ExpmSolver::expm(std::vector<double>{a}, 1);
        EXPECT_NEAR(e[0], std::exp(a),
                    1e-12 * std::max(1.0, std::exp(a)))
            << "a=" << a;
    }
}

TEST(ExpmSolver, ExpmOfDiagonalIsElementwiseExp)
{
    const std::vector<double> m = {-1.0, 0.0, 0.0,  // row 0
                                   0.0,  -10.0, 0.0, // row 1
                                   0.0,  0.0,  -100.0};
    const std::vector<double> e = ExpmSolver::expm(m, 3);
    EXPECT_NEAR(e[0], std::exp(-1.0), 1e-12);
    EXPECT_NEAR(e[4], std::exp(-10.0), 1e-10);
    EXPECT_NEAR(e[8], std::exp(-100.0), 1e-12);
    EXPECT_DOUBLE_EQ(e[1], 0.0);
    EXPECT_DOUBLE_EQ(e[3], 0.0);
}

TEST(ExpmSolver, SteadyStateMatchesHandSolvedChain)
{
    // Two-node chain: node 0 -- g1 -- node 1 -- g2 -- ambient.
    // With power p into node 0: T1 = Tamb + p/g2, T0 = T1 + p/g1.
    const double g1 = 0.5;
    const double g2 = 2.0;
    const double ambient = 318.15;
    const double p = 3.0;
    std::vector<double> g = {g1, -g1, -g1, g1 + g2};
    std::vector<double> cap = {1e-3, 1e-3};
    std::vector<double> const_heat = {0.0, g2 * ambient};
    ExpmSolver solver(g, cap, const_heat);

    std::vector<Kelvin> temps(2, ambient);
    solver.steadyState(temps, {p, 0.0});
    EXPECT_NEAR(temps[1], ambient + p / g2, 1e-9);
    EXPECT_NEAR(temps[0], ambient + p / g2 + p / g1, 1e-9);
}

TEST(ExpmSolver, AdvanceConvergesToSteadyStateForHugeDt)
{
    // For dt many time constants, Phi ~ 0 and the advance lands on
    // the steady state exactly.
    ThermalParams params;
    RcModel rc(twoBlocks(), params);
    rc.setPower(0, 2.0);
    rc.setPower(1, 0.5);
    RcModel reference(twoBlocks(), params);
    reference.setPower(0, 2.0);
    reference.setPower(1, 0.5);
    reference.solveSteadyState();
    rc.step(100.0); // ~10^4 package time constants
    EXPECT_NEAR(rc.temperature(0), reference.temperature(0), 1e-9);
    EXPECT_NEAR(rc.temperature(1), reference.temperature(1), 1e-9);
}

/**
 * Explicit Euler over the G and C `rc` assembled, `substeps` steps
 * of dt / substeps: dT/dt = A T + (u + q) / C with the block
 * powers held constant. The reference the exact propagator must
 * agree with.
 */
void
eulerReference(const RcModel& rc, std::vector<double>& temps,
               Seconds dt, int substeps)
{
    const ExpmSolver& s = rc.expmSolver();
    const std::size_t n = temps.size();
    std::vector<double> rate(n);
    const Seconds h = dt / substeps;
    for (int k = 0; k < substeps; ++k) {
        for (std::size_t i = 0; i < n; ++i) {
            const double u =
                i < static_cast<std::size_t>(rc.numBlocks())
                    ? rc.power(static_cast<int>(i))
                    : 0.0;
            rate[i] = (u + s.constHeat()[i]) / s.capacitance()[i];
            for (std::size_t j = 0; j < n; ++j)
                rate[i] += s.generator()[i * n + j] * temps[j];
        }
        for (std::size_t i = 0; i < n; ++i)
            temps[i] += h * rate[i];
    }
}

TEST(ExpmSolver, AgreesWithEulerOracleOverTransient)
{
    // Ten sampling intervals with per-interval power changes, the
    // production step pattern. The oracle is explicit Euler driven
    // far below its stability bound so its own integration error
    // sits under the agreement tolerance.
    ThermalParams params;
    params.timeScale = 0.04; // the experiments' default
    RcModel fast(twoBlocks(), params);
    std::vector<double> oracle(
        static_cast<std::size_t>(fast.expmSolver().numNodes()),
        params.ambient);

    const Seconds dt = 100000.0 / 4.2e9; // Table 2 interval
    const int substeps = 1 << 19;        // h ~ 45 ps
    double max_diff = 0.0;
    for (int interval = 0; interval < 10; ++interval) {
        fast.setPower(0, 0.5 + 0.3 * (interval % 4));
        fast.setPower(1, 2.0 - 0.4 * (interval % 5));
        eulerReference(fast, oracle, dt, substeps);
        fast.step(dt);
        for (int b = 0; b < 2; ++b) {
            max_diff = std::max(
                max_diff,
                std::abs(fast.temperature(b) -
                         oracle[static_cast<std::size_t>(b)]));
        }
    }
    EXPECT_LT(max_diff, 1e-6); // Kelvin
}

TEST(ExpmSolver, BitLevelDeterminism)
{
    // Two identically-driven models produce bit-identical
    // trajectories (no accumulation-order or cache-state
    // dependence).
    auto run = [] {
        ThermalParams params;
        params.timeScale = 0.04;
        RcModel rc(twoBlocks(), params);
        std::vector<Kelvin> trace;
        for (int i = 0; i < 50; ++i) {
            rc.setPower(0, 0.25 * (i % 7));
            rc.setPower(1, 0.1 * (i % 3));
            // Alternate full and partial chunks to exercise the
            // propagator cache.
            rc.step(i % 4 == 3 ? 7.3e-6 : 2.38e-5);
            trace.push_back(rc.temperature(0));
            trace.push_back(rc.temperature(1));
            trace.push_back(rc.sinkTemperature());
        }
        return trace;
    };
    const std::vector<Kelvin> a = run();
    const std::vector<Kelvin> b = run();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "index " << i; // exact bits
}

TEST(ExpmSolver, PartialChunkDtReusesCache)
{
    // The cooling-stall path chops a stall into full sampling
    // chunks plus one partial remainder: two distinct dts, two
    // cached propagators, no growth on repetition.
    ThermalParams params;
    RcModel rc(twoBlocks(), params);
    rc.setPower(0, 1.0);
    const Seconds full = 2.38e-5;
    const Seconds partial = 0.37 * full;
    for (int i = 0; i < 5; ++i)
        rc.step(full);
    EXPECT_EQ(rc.expmSolver().cachedPropagators(), 1);
    rc.step(partial);
    EXPECT_EQ(rc.expmSolver().cachedPropagators(), 2);
    for (int i = 0; i < 5; ++i) {
        rc.step(full);
        rc.step(partial);
    }
    EXPECT_EQ(rc.expmSolver().cachedPropagators(), 2);
}

TEST(ExpmSolver, PropagatorCacheIsBounded)
{
    ThermalParams params;
    RcModel rc(twoBlocks(), params);
    rc.setPower(0, 1.0);
    for (int i = 1; i <= 40; ++i)
        rc.step(1e-6 * i); // 40 distinct dts
    EXPECT_LE(rc.expmSolver().cachedPropagators(), 16);
    // Eviction keeps the solver usable and exact: a fresh dt still
    // advances correctly.
    RcModel reference(twoBlocks(), params);
    reference.setPower(0, 1.0);
    reference.solveSteadyState();
    rc.step(100.0);
    EXPECT_NEAR(rc.temperature(0), reference.temperature(0), 1e-9);
}

/** ThermalParams::maxCachedPropagators must reach the solver and
 * bound the cache, with eviction keeping results exact. */
TEST(ExpmSolver, CacheCapComesFromThermalParams)
{
    ThermalParams params;
    params.maxCachedPropagators = 2;
    RcModel rc(twoBlocks(), params);
    EXPECT_EQ(rc.expmSolver().maxCachedPropagators(), 2u);

    rc.setPower(0, 1.0);
    for (int i = 1; i <= 10; ++i)
        rc.step(1e-6 * i); // 10 distinct dts, capacity 2
    EXPECT_LE(rc.expmSolver().cachedPropagators(), 2);

    // The tight cap trades recompute for memory, never accuracy.
    RcModel reference(twoBlocks(), params);
    reference.setPower(0, 1.0);
    reference.solveSteadyState();
    rc.step(100.0);
    EXPECT_NEAR(rc.temperature(0), reference.temperature(0), 1e-9);
}

TEST(ExpmSolver, CacheCapOfZeroIsFatal)
{
    ThermalParams params;
    params.maxCachedPropagators = 0;
    EXPECT_THROW(RcModel(twoBlocks(), params), FatalError);
}

/** The reported footprint is the budgeting contract tools rely on:
 * one dense Phi is n^2 doubles, and the cache holds exactly
 * cachedPropagators() of them. */
TEST(ExpmSolver, PropagatorFootprintReporting)
{
    ThermalParams params;
    RcModel rc(twoBlocks(), params);
    const ExpmSolver& solver = rc.expmSolver();

    // n covers at least the two block nodes plus the package
    // (spreader/sink) nodes, and the footprint is exactly n^2
    // doubles for some such n.
    const std::size_t bytes = solver.propagatorBytes();
    std::size_t n = 0;
    while (n * n * sizeof(double) < bytes)
        ++n;
    EXPECT_EQ(n * n * sizeof(double), bytes);
    EXPECT_GT(n, 2u);

    EXPECT_EQ(solver.cachedPropagatorBytes(), 0u);
    rc.setPower(0, 1.0);
    rc.step(1e-5);
    EXPECT_EQ(solver.cachedPropagatorBytes(), bytes);
    rc.step(2e-5);
    EXPECT_EQ(solver.cachedPropagatorBytes(), 2 * bytes);
}

} // namespace
} // namespace tempest
