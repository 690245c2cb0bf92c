/**
 * @file
 * End-to-end wall-clock throughput tracking.
 *
 * Unlike tempest_sweep --paper (which reports *simulated*
 * quantities), this binary measures how fast the simulator itself
 * runs: simulated cycles per wall-clock second over a Table-4
 * style sweep (IQ-constrained base + toggling configurations), for
 * both transient thermal solvers and for serial vs 8-thread
 * execution on the thread backend, plus warm-fork against cold
 * sweeps, the process backend at 1/2/8 workers, and the CMP
 * engine at 1/2/4 cores. Results go to stdout as a table and to
 * BENCH_wallclock.json so perf regressions are visible across
 * commits (see tools/record_bench.py).
 *
 * Every section runs its jobs twice, on two backends or pool
 * sizes, and fails unless both passes hash bit-identically, so
 * the perf numbers can never come from a run that silently
 * changed behaviour.
 *
 * Environment knobs:
 * - TEMPEST_CYCLES: simulated cycles per run (default 2,000,000)
 * - TEMPEST_SMOKE: set for a fast CI pass (200,000 cycles)
 * - TEMPEST_BENCH_JSON: output path (default BENCH_wallclock.json)
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "sim/experiment.hh"
#include "sim/fabric/coordinator.hh"
#include "sim/paper.hh"
#include "sim/runner.hh"

namespace tempest
{
namespace
{

/** Table 4's benchmarks; every section sweeps them at seed 1. */
const std::vector<std::string> kBenchmarks = {"art", "facerec",
                                              "mesa"};

/** Run `fn()` and @return (wall seconds, its outcomes); fatal if
 * a job failed. */
template <typename Fn>
std::pair<double, std::vector<Outcome>>
timed(const char* what, Fn&& fn)
{
    const auto start = std::chrono::steady_clock::now();
    std::vector<Outcome> outcomes = fn();
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    for (const Outcome& o : outcomes) {
        if (!o.ok)
            fatal(what, " job ", o.tag, "/", o.benchmark,
                  " failed: ", o.error);
    }
    return {wall, std::move(outcomes)};
}

/** fatal() unless both passes hash bit-identically, job by job:
 * a concurrency bug can never masquerade as a speedup. */
void
checkIdentical(const char* what, const std::vector<Outcome>& a,
               const std::vector<Outcome>& b)
{
    if (a.size() != b.size())
        fatal(what, ": the two passes ran different job counts");
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (hashCmpResult(a[i].result) != hashCmpResult(b[i].result))
            fatal(what, ": results diverged for job ", a[i].tag, "/",
                  a[i].benchmark);
    }
}

std::uint64_t
simCycles(const std::vector<Outcome>& outcomes)
{
    std::uint64_t n = 0;
    for (const Outcome& o : outcomes) {
        for (const SimResult& c : o.result.cores)
            n += c.cycles;
    }
    return n;
}

struct SweepTiming
{
    std::string solver;
    int threads = 1;
    double wallSeconds = 0.0;
    std::uint64_t simCycles = 0;
    std::size_t jobs = 0;
    std::vector<Outcome> outcomes;

    double
    cyclesPerSecond() const
    {
        return wallSeconds > 0
                   ? static_cast<double>(simCycles) / wallSeconds
                   : 0.0;
    }
};

SweepTiming
timeSweep(ThermalSolver solver, int threads, std::uint64_t cycles)
{
    SweepTiming t;
    t.solver = solver == ThermalSolver::Expm ? "expm" : "euler";
    t.threads = threads;
    std::vector<std::pair<std::string, SimConfig>> configs = {
        {"iq_base", experiments::iqBase()},
        {"iq_toggling", experiments::iqToggling()},
    };
    for (auto& [tag, config] : configs)
        config.thermal.solver = solver;
    const std::vector<Job> jobs =
        experiments::sweepJobs(configs, kBenchmarks, cycles, 1);
    std::tie(t.wallSeconds, t.outcomes) =
        timed("sweep", [&] { return runJobs(jobs, threads); });
    t.simCycles = simCycles(t.outcomes);
    t.jobs = t.outcomes.size();
    return t;
}

/** Warm-fork vs cold-sweep timing (see DESIGN.md §11). */
struct WarmForkTiming
{
    std::size_t configs = 0;
    std::uint64_t warmupCycles = 0;
    std::uint64_t measureCycles = 0;
    double coldWallSeconds = 0.0;
    double warmWallSeconds = 0.0;     ///< serial warm-fork sweep
    double threadedWallSeconds = 0.0; ///< 8-thread warm-fork sweep

    double
    speedup() const
    {
        return warmWallSeconds > 0
                   ? coldWallSeconds / warmWallSeconds
                   : 0.0;
    }
};

/**
 * Time the warm-fork path against the cold sweep it replaces: the
 * cold sweep simulates warm-up + measurement in every job; the
 * warm-fork sweep warms each benchmark once and forks the
 * measurement region per config. Serial vs 8-thread fork results
 * are checked bit-identical before any number is reported.
 */
WarmForkTiming
timeWarmFork(std::uint64_t cycles)
{
    const auto configs = paper::scaleConfigs();
    WarmForkTiming t;
    t.configs = configs.size();
    t.warmupCycles = cycles / 2;
    t.measureCycles = cycles - t.warmupCycles;

    const experiments::SpillDir spill;
    const std::vector<Job> jobs = experiments::warmForkJobs(
        configs, kBenchmarks, experiments::iqBase(), t.warmupCycles,
        t.measureCycles, 1, spill.path());
    const auto on = [&](int threads) {
        return [&jobs, threads] {
            return experiments::runWarmFork(
                jobs, [threads](const std::vector<Job>& batch) {
                    return runJobs(batch, threads);
                });
        };
    };
    const std::vector<Job> cold =
        experiments::sweepJobs(configs, kBenchmarks, cycles, 1);
    t.coldWallSeconds =
        timed("warm-fork bench", [&] { return runJobs(cold, 1); })
            .first;
    auto [warm_wall, serial] = timed("warm-fork bench", on(1));
    auto [threaded_wall, threaded] = timed("warm-fork bench", on(8));
    t.warmWallSeconds = warm_wall;
    t.threadedWallSeconds = threaded_wall;
    checkIdentical("warm-fork serial vs 8-thread", serial, threaded);
    return t;
}

/** Process backend vs the serial thread backend (DESIGN.md §15). */
struct FabricTiming
{
    std::size_t jobs = 0;
    std::uint64_t simCycles = 0;
    double inProcessWallSeconds = 0.0;
    /** (workers, wall seconds) per pool size. */
    std::vector<std::pair<int, double>> pools;
};

/**
 * Time the process backend at 1/2/8 worker processes against the
 * serial thread backend on the same job list. The workers=1 row
 * measures pure coordinator overhead (fork + IPC + result
 * transport); larger pools measure process-level scaling. Every
 * pool's outcome set is checked bit-identical to the in-process
 * reference before any number is reported.
 */
FabricTiming
timeFabric(std::uint64_t cycles)
{
    const std::vector<Job> jobs = experiments::sweepJobs(
        paper::scaleConfigs(), kBenchmarks, cycles, 1);
    FabricTiming t;
    auto [wall, reference] =
        timed("fabric bench", [&] { return runJobs(jobs, 1); });
    t.inProcessWallSeconds = wall;
    t.simCycles = simCycles(reference);
    t.jobs = reference.size();

    for (const int workers : {1, 2, 8}) {
        fabric::FabricOptions options;
        options.workers = workers;
        fabric::FabricCoordinator coordinator(options);
        auto [pool_wall, outcomes] = timed(
            "fabric bench", [&] { return coordinator.runJobs(jobs); });
        checkIdentical("process backend vs thread backend",
                       reference, outcomes);
        t.pools.emplace_back(workers, pool_wall);
    }
    return t;
}

/** CMP engine throughput at 1/2/4 cores (DESIGN.md §16). */
struct CmpTiming
{
    struct Row
    {
        std::string tag;
        int cores = 0;
        double wallSeconds = 0.0;
        std::uint64_t simCycles = 0; ///< summed over cores
        std::uint64_t hash = 0;
    };
    std::vector<Row> rows;
};

/**
 * Time the flat 1/2/4-core jobs of the --cmp-scale matrix.
 * Hash-gated like every other section: the serial pass and a
 * 3-thread pass must produce identical result hashes before any
 * number is reported. The reported wall times come from the
 * serial pass (one simulator per row, no pool interference).
 */
CmpTiming
timeCmp(std::uint64_t cycles)
{
    std::vector<Job> jobs;
    for (const Job& job : paper::cmpScaleJobs(cycles)) {
        if (!job.config.stack.dram)
            jobs.push_back(job);
    }
    const auto serial =
        timed("cmp bench", [&] { return runJobs(jobs, 1); }).second;
    const auto pooled =
        timed("cmp bench", [&] { return runJobs(jobs, 3); }).second;
    checkIdentical("cmp serial vs 3-thread", serial, pooled);

    CmpTiming t;
    for (const Outcome& o : serial) {
        CmpTiming::Row& row = t.rows.emplace_back();
        row.tag = o.tag;
        row.cores = static_cast<int>(o.result.cores.size());
        row.wallSeconds = o.wallSeconds;
        for (const SimResult& c : o.result.cores)
            row.simCycles += c.cycles;
        row.hash = hashCmpResult(o.result);
    }
    return t;
}

void
writeJson(const std::string& path,
          const std::vector<SweepTiming>& timings,
          const WarmForkTiming& warm_fork,
          const FabricTiming& fabric_timing,
          const CmpTiming& cmp_timing,
          const std::vector<std::string>& benchmarks,
          std::uint64_t cycles)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot write ", path);
    std::fprintf(f, "{\n  \"bench\": \"wallclock\",\n");
    std::fprintf(f, "  \"cycles_per_run\": %llu,\n",
                 static_cast<unsigned long long>(cycles));
    // Thread counts above the machine's core count oversubscribe:
    // their rows measure scheduling overhead, not a perf
    // regression. Record the core count so readers (and the perf
    // smoke check) can tell the two apart.
    const unsigned hw_threads =
        std::thread::hardware_concurrency();
    std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
                 hw_threads);
    bool oversubscribed = false;
    for (const SweepTiming& t : timings)
        oversubscribed = oversubscribed ||
                         static_cast<unsigned>(t.threads) >
                             hw_threads;
    if (oversubscribed) {
        std::fprintf(
            f,
            "  \"note\": \"thread counts above "
            "hardware_concurrency oversubscribe the machine; "
            "slower multi-thread rows are expected there, not a "
            "regression\",\n");
    }
    std::fprintf(f, "  \"benchmarks\": [");
    for (std::size_t i = 0; i < benchmarks.size(); ++i)
        std::fprintf(f, "%s\"%s\"", i ? ", " : "",
                     benchmarks[i].c_str());
    std::fprintf(f, "],\n  \"runs\": [\n");
    for (std::size_t i = 0; i < timings.size(); ++i) {
        const SweepTiming& t = timings[i];
        std::fprintf(
            f,
            "    {\"solver\": \"%s\", \"threads\": %d, "
            "\"jobs\": %zu, \"wall_seconds\": %.4f, "
            "\"sim_cycles\": %llu, "
            "\"sim_cycles_per_second\": %.0f}%s\n",
            t.solver.c_str(), t.threads, t.jobs, t.wallSeconds,
            static_cast<unsigned long long>(t.simCycles),
            t.cyclesPerSecond(),
            i + 1 < timings.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(
        f,
        "  \"warm_fork\": {\"configs\": %zu, "
        "\"warmup_cycles\": %llu, \"measure_cycles\": %llu, "
        "\"cold_wall_seconds\": %.4f, "
        "\"warm_wall_seconds\": %.4f, "
        "\"threaded_wall_seconds\": %.4f, "
        "\"speedup\": %.3f},\n",
        warm_fork.configs,
        static_cast<unsigned long long>(warm_fork.warmupCycles),
        static_cast<unsigned long long>(warm_fork.measureCycles),
        warm_fork.coldWallSeconds, warm_fork.warmWallSeconds,
        warm_fork.threadedWallSeconds, warm_fork.speedup());
    // Worker-process rows, like thread rows, depend on the
    // machine's core count; perf_smoke.py treats them as
    // advisory-only.
    std::fprintf(f, "  \"fabric\": {\"jobs\": %zu, "
                    "\"sim_cycles\": %llu, "
                    "\"in_process_wall_seconds\": %.4f, "
                    "\"pools\": [\n",
                 fabric_timing.jobs,
                 static_cast<unsigned long long>(
                     fabric_timing.simCycles),
                 fabric_timing.inProcessWallSeconds);
    for (std::size_t i = 0; i < fabric_timing.pools.size(); ++i) {
        const auto& [workers, wall] = fabric_timing.pools[i];
        const double rate =
            wall > 0
                ? static_cast<double>(fabric_timing.simCycles) /
                      wall
                : 0.0;
        std::fprintf(f,
                     "    {\"workers\": %d, "
                     "\"wall_seconds\": %.4f, "
                     "\"sim_cycles_per_second\": %.0f}%s\n",
                     workers, wall, rate,
                     i + 1 < fabric_timing.pools.size() ? ","
                                                        : "");
    }
    std::fprintf(f, "  ]},\n");
    // CMP rows: lockstep N-core throughput. sim_cycles sums every
    // core's clock, so per-core slowdown vs the 1-core row is the
    // shared-network solve cost, not a unit mismatch.
    std::fprintf(f, "  \"cmp\": [\n");
    for (std::size_t i = 0; i < cmp_timing.rows.size(); ++i) {
        const CmpTiming::Row& row = cmp_timing.rows[i];
        const double rate =
            row.wallSeconds > 0
                ? static_cast<double>(row.simCycles) /
                      row.wallSeconds
                : 0.0;
        std::fprintf(f,
                     "    {\"tag\": \"%s\", \"cores\": %d, "
                     "\"wall_seconds\": %.4f, "
                     "\"sim_cycles\": %llu, "
                     "\"sim_cycles_per_second\": %.0f, "
                     "\"result_hash\": \"0x%016llx\"}%s\n",
                     row.tag.c_str(), row.cores, row.wallSeconds,
                     static_cast<unsigned long long>(
                         row.simCycles),
                     rate,
                     static_cast<unsigned long long>(row.hash),
                     i + 1 < cmp_timing.rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
}

int
run()
{
    const bool smoke = std::getenv("TEMPEST_SMOKE") != nullptr;
    std::uint64_t cycles = smoke ? 200'000 : 2'000'000;
    if (const char* env = std::getenv("TEMPEST_CYCLES"))
        cycles = static_cast<std::uint64_t>(std::atoll(env));

    std::vector<SweepTiming> timings;
    for (const ThermalSolver solver :
         {ThermalSolver::Expm, ThermalSolver::Euler}) {
        SweepTiming serial = timeSweep(solver, 1, cycles);
        SweepTiming threaded = timeSweep(solver, 8, cycles);
        checkIdentical("serial vs 8-thread sweep", serial.outcomes,
                       threaded.outcomes);
        timings.push_back(std::move(serial));
        timings.push_back(std::move(threaded));
    }

    std::vector<std::vector<std::string>> rows;
    rows.push_back({"solver", "threads", "jobs", "wall s",
                    "Mcycles/s"});
    char buf[64];
    for (const SweepTiming& t : timings) {
        std::vector<std::string> row;
        row.push_back(t.solver);
        row.push_back(std::to_string(t.threads));
        row.push_back(std::to_string(t.jobs));
        std::snprintf(buf, sizeof(buf), "%.2f", t.wallSeconds);
        row.push_back(buf);
        std::snprintf(buf, sizeof(buf), "%.2f",
                      t.cyclesPerSecond() / 1e6);
        row.push_back(buf);
        rows.push_back(std::move(row));
    }
    std::printf("%s", experiments::renderTable(rows).c_str());

    const double expm = timings[0].cyclesPerSecond();
    const double euler = timings[2].cyclesPerSecond();
    if (euler > 0)
        std::printf("serial expm/euler throughput ratio: %.2fx\n",
                    expm / euler);

    const WarmForkTiming warm_fork = timeWarmFork(cycles);
    std::printf(
        "warm-fork sweep (%zu configs, %llu warm-up + %llu "
        "measure cycles): cold %.2fs, warm-fork %.2fs serial "
        "(%.2fx), %.2fs at 8 threads\n",
        warm_fork.configs,
        static_cast<unsigned long long>(warm_fork.warmupCycles),
        static_cast<unsigned long long>(warm_fork.measureCycles),
        warm_fork.coldWallSeconds, warm_fork.warmWallSeconds,
        warm_fork.speedup(), warm_fork.threadedWallSeconds);

    const FabricTiming fabric_timing = timeFabric(cycles);
    std::printf("fabric sweep (%zu jobs, in-process %.2fs):",
                fabric_timing.jobs,
                fabric_timing.inProcessWallSeconds);
    for (const auto& [workers, wall] : fabric_timing.pools)
        std::printf(" %dw %.2fs", workers, wall);
    if (!fabric_timing.pools.empty() &&
        fabric_timing.inProcessWallSeconds > 0) {
        std::printf(
            " (1-worker overhead %.1f%%)",
            (fabric_timing.pools.front().second /
                 fabric_timing.inProcessWallSeconds -
             1.0) *
                100.0);
    }
    std::printf("\n");

    const CmpTiming cmp_timing = timeCmp(cycles);
    std::printf("cmp engine:");
    for (const CmpTiming::Row& row : cmp_timing.rows) {
        const double rate =
            row.wallSeconds > 0
                ? row.simCycles / row.wallSeconds / 1e6
                : 0.0;
        std::printf(" %s %.2fs (%.2f Mcycles/s)", row.tag.c_str(),
                    row.wallSeconds, rate);
    }
    std::printf("\n");

    const char* json = std::getenv("TEMPEST_BENCH_JSON");
    writeJson(json ? json : "BENCH_wallclock.json", timings,
              warm_fork, fabric_timing, cmp_timing, kBenchmarks,
              cycles);
    return 0;
}

} // namespace
} // namespace tempest

int
main()
{
    return tempest::run();
}
