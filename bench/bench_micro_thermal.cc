/**
 * @file
 * Microbenchmarks for the thermal solver: per-interval transient
 * stepping cost and the dense steady-state solve.
 */

#include <benchmark/benchmark.h>

#include "thermal/rc_model.hh"
#include "thermal/sensor.hh"

namespace
{

using namespace tempest;

void
BM_TransientStep(benchmark::State& state)
{
    ThermalParams params;
    params.timeScale = 0.04;
    RcModel rc(
        Floorplan::ev6Like(FloorplanVariant::IqConstrained),
        params);
    for (int b = 0; b < rc.numBlocks(); ++b)
        rc.setPower(b, 0.5);
    const Seconds dt = 50000 / 4.2e9; // one sampling interval
    for (auto _ : state) {
        rc.step(dt);
        benchmark::DoNotOptimize(rc.temperature(0));
    }
}
BENCHMARK(BM_TransientStep);

void
BM_SteadyStateSolve(benchmark::State& state)
{
    ThermalParams params;
    RcModel rc(
        Floorplan::ev6Like(FloorplanVariant::Baseline), params);
    for (int b = 0; b < rc.numBlocks(); ++b)
        rc.setPower(b, 0.4);
    for (auto _ : state) {
        rc.solveSteadyState();
        benchmark::DoNotOptimize(rc.temperature(0));
    }
}
BENCHMARK(BM_SteadyStateSolve);

void
BM_SensorSweep(benchmark::State& state)
{
    ThermalParams params;
    RcModel rc(
        Floorplan::ev6Like(FloorplanVariant::Baseline), params);
    SensorBank sensors(rc);
    for (auto _ : state) {
        auto temps = sensors.readAll();
        benchmark::DoNotOptimize(temps.data());
    }
}
BENCHMARK(BM_SensorSweep);

} // namespace

BENCHMARK_MAIN();
