/**
 * @file
 * Physics tests for the RC thermal model: analytic steady states,
 * transient behaviour, stability, and the vertical-vs-lateral
 * conduction property the paper relies on.
 */

#include <gtest/gtest.h>

#include "common/log.hh"

#include <cmath>

#include "thermal/rc_model.hh"

namespace tempest
{
namespace
{

Floorplan
singleBlock()
{
    Floorplan fp;
    fp.addBlock("blk", 0, 0, 1e-3, 1e-3);
    return fp;
}

Floorplan
twoBlocks()
{
    Floorplan fp;
    fp.addBlock("a", 0, 0, 1e-3, 1e-3);
    fp.addBlock("b", 1e-3, 0, 1e-3, 1e-3);
    return fp;
}

TEST(Thermal, ZeroPowerSteadyStateIsAmbient)
{
    ThermalParams params;
    RcModel rc(singleBlock(), params);
    rc.solveSteadyState();
    EXPECT_NEAR(rc.temperature(0), params.ambient, 1e-6);
    EXPECT_NEAR(rc.sinkTemperature(), params.ambient, 1e-6);
}

TEST(Thermal, SteadyStateMatchesSeriesResistanceAnalytically)
{
    // One block: T = ambient + P * (Rv + Rss + Rconv).
    ThermalParams params;
    RcModel rc(singleBlock(), params);
    const Watt p = 2.0;
    rc.setPower(0, p);
    rc.solveSteadyState();
    const double r_total = rc.verticalResistance(0) +
                           params.rSpreaderSink +
                           params.rConvection;
    EXPECT_NEAR(rc.temperature(0),
                params.ambient + p * r_total, 1e-6);
    EXPECT_NEAR(rc.sinkTemperature(),
                params.ambient + p * params.rConvection, 1e-6);
}

TEST(Thermal, SuperpositionOfPower)
{
    // The network is linear: doubling power doubles the rise.
    ThermalParams params;
    RcModel rc(twoBlocks(), params);
    rc.setPower(0, 1.0);
    rc.solveSteadyState();
    const double rise1 = rc.temperature(0) - params.ambient;
    rc.setPower(0, 2.0);
    rc.solveSteadyState();
    const double rise2 = rc.temperature(0) - params.ambient;
    EXPECT_NEAR(rise2, 2.0 * rise1, 1e-9);
}

TEST(Thermal, SymmetricBlocksEqualTemperature)
{
    ThermalParams params;
    RcModel rc(twoBlocks(), params);
    rc.setPower(0, 1.5);
    rc.setPower(1, 1.5);
    rc.solveSteadyState();
    EXPECT_NEAR(rc.temperature(0), rc.temperature(1), 1e-9);
}

TEST(Thermal, HeatFlowsFromHotToCold)
{
    ThermalParams params;
    RcModel rc(twoBlocks(), params);
    rc.setPower(0, 3.0);
    rc.setPower(1, 0.0);
    rc.solveSteadyState();
    EXPECT_GT(rc.temperature(0), rc.temperature(1));
    // The idle neighbour still warms above the spreader via the
    // lateral path.
    EXPECT_GT(rc.temperature(1), rc.spreaderTemperature());
}

TEST(Thermal, VerticalAndLateralPathsComparable)
{
    // The paper's premise is that heat leaves small blocks mostly
    // vertically, so neighbouring copies sustain a gradient. The
    // per-edge resistances must be of the same order (neither
    // path shorts the other); the sustained-gradient behaviour is
    // asserted in AdjacentCopiesSustainKelvinScaleDifference.
    ThermalParams params;
    const Floorplan fp =
        Floorplan::ev6Like(FloorplanVariant::AluConstrained);
    RcModel rc(fp, params);
    const int a = fp.indexOf("IntExec0");
    const int b = fp.indexOf("IntExec2");
    const double rv = rc.verticalResistance(a);
    const double rl = rc.lateralResistance(a, b);
    EXPECT_GT(rl, 0.3 * rv);
    EXPECT_LT(rl, 3.0 * rv);
}

TEST(Thermal, AdjacentCopiesSustainKelvinScaleDifference)
{
    // Drive one ALU of the ALU-constrained floorplan at a realistic
    // power and its neighbour at half: several K of difference
    // must survive (Table 5 measures >4 K across the ALU bank).
    ThermalParams params;
    const Floorplan fp =
        Floorplan::ev6Like(FloorplanVariant::AluConstrained);
    RcModel rc(fp, params);
    rc.setPower(fp.indexOf("IntExec0"), 0.8);
    rc.setPower(fp.indexOf("IntExec2"), 0.4);
    rc.solveSteadyState();
    EXPECT_GT(rc.temperature(fp.indexOf("IntExec0")) -
                  rc.temperature(fp.indexOf("IntExec2")),
              2.0);
}

TEST(Thermal, TransientConvergesToSteadyState)
{
    ThermalParams params;
    params.timeScale = 1.0;
    RcModel rc(twoBlocks(), params);
    rc.setPower(0, 2.0);
    rc.setPower(1, 0.5);
    RcModel reference(twoBlocks(), params);
    reference.setPower(0, 2.0);
    reference.setPower(1, 0.5);
    reference.solveSteadyState();
    // March the transient for many package time constants.
    for (int i = 0; i < 4000; ++i)
        rc.step(1e-3);
    EXPECT_NEAR(rc.temperature(0), reference.temperature(0), 0.05);
    EXPECT_NEAR(rc.temperature(1), reference.temperature(1), 0.05);
}

TEST(Thermal, TransientIsMonotoneOnStep)
{
    // A power step from equilibrium produces a monotone rise.
    ThermalParams params;
    RcModel rc(singleBlock(), params);
    rc.solveSteadyState(); // ambient everywhere
    rc.setPower(0, 2.0);
    double prev = rc.temperature(0);
    for (int i = 0; i < 200; ++i) {
        rc.step(1e-4);
        const double t = rc.temperature(0);
        ASSERT_GE(t, prev - 1e-12);
        prev = t;
    }
}

TEST(Thermal, CoolingAfterPowerRemoval)
{
    ThermalParams params;
    RcModel rc(singleBlock(), params);
    rc.setPower(0, 3.0);
    rc.solveSteadyState();
    const double hot = rc.temperature(0);
    rc.setPower(0, 0.0);
    rc.step(5e-3);
    EXPECT_LT(rc.temperature(0), hot);
    EXPECT_GT(rc.temperature(0), params.ambient);
}

TEST(Thermal, TimeScaleCompressesDynamicsNotSteadyState)
{
    ThermalParams slow;
    ThermalParams fast;
    fast.timeScale = 0.1;
    RcModel a(singleBlock(), slow);
    RcModel b(singleBlock(), fast);
    a.setPower(0, 2.0);
    b.setPower(0, 2.0);
    a.step(1e-3);
    b.step(1e-3);
    // The compressed model heats faster...
    EXPECT_GT(b.temperature(0), a.temperature(0));
    // ...but reaches the same steady state.
    a.solveSteadyState();
    b.solveSteadyState();
    EXPECT_NEAR(a.temperature(0), b.temperature(0), 1e-9);
}

TEST(Thermal, SetTemperatureOverrides)
{
    ThermalParams params;
    RcModel rc(singleBlock(), params);
    rc.setTemperature(0, 350.0);
    EXPECT_DOUBLE_EQ(rc.temperature(0), 350.0);
    rc.setAllTemperatures(320.0);
    EXPECT_DOUBLE_EQ(rc.temperature(0), 320.0);
}

TEST(Thermal, RejectsNegativePower)
{
    ThermalParams params;
    RcModel rc(singleBlock(), params);
    EXPECT_DEATH(rc.setPower(0, -1.0), "negative");
}

TEST(Thermal, ValidateCatchesBadParams)
{
    ThermalParams p;
    p.timeScale = 0.0;
    EXPECT_THROW(p.validate(), FatalError);
    p = ThermalParams{};
    p.rConvection = -1;
    EXPECT_THROW(p.validate(), FatalError);
    p = ThermalParams{};
    p.dieThickness = 0;
    EXPECT_THROW(p.validate(), FatalError);
}

TEST(Thermal, TotalPowerSums)
{
    ThermalParams params;
    RcModel rc(twoBlocks(), params);
    rc.setPower(0, 1.25);
    rc.setPower(1, 2.75);
    EXPECT_DOUBLE_EQ(rc.totalPower(), 4.0);
}

} // namespace
} // namespace tempest
