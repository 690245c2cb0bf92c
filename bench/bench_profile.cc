/**
 * @file
 * Per-stage time attribution harness.
 *
 * Runs a representative sweep (Table 4's IQ base + toggling
 * configs over art, facerec and mesa) and prints the profiler
 * breakdown: which pipeline stage or interval-level model the
 * simulator spends its time in, and how many idle cycles the core
 * skipped without running a stage. Requires a build configured with
 * -DTEMPEST_PROFILE=ON; otherwise it explains how to get one and
 * exits successfully (so it can live in any build).
 *
 * Environment knobs:
 * - TEMPEST_CYCLES: simulated cycles per run (default 2,000,000)
 */

#include <cstdio>
#include <cstdlib>

#include "common/profiler.hh"
#include "sim/experiment.hh"

int
main()
{
#if !TEMPEST_PROF_ENABLED
    std::printf(
        "bench_profile: profiling is compiled out.\n"
        "Reconfigure with -DTEMPEST_PROFILE=ON to attribute time:\n"
        "  cmake -B build-prof -S . -DTEMPEST_PROFILE=ON\n"
        "  cmake --build build-prof --target bench_profile\n");
    return 0;
#else
    using namespace tempest;

    std::uint64_t cycles = 2'000'000;
    if (const char* env = std::getenv("TEMPEST_CYCLES"))
        cycles = std::strtoull(env, nullptr, 10);

    const char* benchmarks[] = {"art", "facerec", "mesa"};
    Profiler::instance().reset();
    for (const char* b : benchmarks) {
        experiments::runBenchmark(experiments::iqBase(), b, cycles);
        experiments::runBenchmark(experiments::iqToggling(), b,
                                  cycles);
    }

    // The stage rows cover ticked cycles only: the idle runs that
    // OooCore::advance jumps (and any cooling stall) run no stage.
    std::printf("per-stage breakdown over %llu cycles x 6 runs, "
                "%llu idle cycles skipped outside the stages\n",
                static_cast<unsigned long long>(cycles),
                static_cast<unsigned long long>(
                    Profiler::instance().skipped()));
    Profiler::instance().report(stdout);
    return 0;
#endif
}
