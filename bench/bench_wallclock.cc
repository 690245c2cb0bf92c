/**
 * @file
 * End-to-end wall-clock throughput tracking.
 *
 * Unlike tempest_sweep --paper (which reports *simulated*
 * quantities), this binary measures how fast the simulator itself
 * runs: simulated cycles per wall-clock second over a Table-4
 * style sweep (IQ-constrained base + toggling configurations), for
 * both transient thermal solvers and for serial vs 8-thread
 * execution on the parallel runner, plus the CMP engine at 1/2/4
 * cores. Results go to stdout as a table and to
 * BENCH_wallclock.json so perf regressions are visible across
 * commits (see tools/record_bench.py).
 *
 * The serial and threaded sweeps must produce bit-identical
 * simulation results (the runner's core guarantee); this binary
 * re-checks that and fails if they diverge, so the perf numbers
 * can never come from a run that silently changed behaviour.
 *
 * Environment knobs:
 * - TEMPEST_CYCLES: simulated cycles per run (default 2,000,000)
 * - TEMPEST_BENCHMARKS: comma-separated benchmark subset
 * - TEMPEST_SEED: base seed for per-run seed derivation
 * - TEMPEST_SMOKE: set for a fast CI pass (200,000 cycles)
 * - TEMPEST_BENCH_JSON: output path (default BENCH_wallclock.json)
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "sim/cmp/cmp_simulator.hh"
#include "sim/experiment.hh"
#include "sim/fabric/coordinator.hh"
#include "sim/runner.hh"
#include "sim/sim_config_io.hh"

namespace tempest
{
namespace
{

struct SweepTiming
{
    std::string solver;
    int threads = 1;
    double wallSeconds = 0.0;
    std::uint64_t simCycles = 0;
    std::size_t jobs = 0;
    std::vector<ExperimentOutcome> outcomes;

    double
    cyclesPerSecond() const
    {
        return wallSeconds > 0
                   ? static_cast<double>(simCycles) / wallSeconds
                   : 0.0;
    }
};

std::uint64_t
envU64(const char* name, std::uint64_t fallback)
{
    if (const char* env = std::getenv(name))
        return static_cast<std::uint64_t>(std::atoll(env));
    return fallback;
}

std::vector<std::string>
benchmarkList()
{
    if (const char* env = std::getenv("TEMPEST_BENCHMARKS")) {
        std::vector<std::string> out;
        std::stringstream ss(env);
        std::string item;
        while (std::getline(ss, item, ','))
            out.push_back(item);
        return out;
    }
    return {"art", "facerec", "mesa"}; // Table 4's benchmarks
}

std::vector<std::pair<std::string, SimConfig>>
sweepConfigs(ThermalSolver solver)
{
    std::vector<std::pair<std::string, SimConfig>> configs = {
        {"iq_base", experiments::iqBase()},
        {"iq_toggling", experiments::iqToggling()},
    };
    for (auto& [tag, config] : configs)
        config.thermal.solver = solver;
    return configs;
}

SweepTiming
timeSweep(ThermalSolver solver, int threads,
          const std::vector<std::string>& benchmarks,
          std::uint64_t cycles, std::uint64_t base_seed)
{
    SweepTiming t;
    t.solver = solver == ThermalSolver::Expm ? "expm" : "euler";
    t.threads = threads;

    ExperimentRunner::Options options;
    options.threads = threads;
    options.baseSeed = base_seed;

    const auto configs = sweepConfigs(solver);
    const auto start = std::chrono::steady_clock::now();
    t.outcomes = experiments::runSweep(configs, benchmarks, cycles,
                                       options);
    const auto end = std::chrono::steady_clock::now();
    t.wallSeconds =
        std::chrono::duration<double>(end - start).count();

    for (const ExperimentOutcome& o : t.outcomes) {
        if (!o.ok)
            fatal("sweep job ", o.tag, "/", o.benchmark,
                  " failed: ", o.error);
        t.simCycles += o.result.cycles;
    }
    t.jobs = t.outcomes.size();
    return t;
}

/** The runner's serial/parallel bit-identity, re-checked here so a
 * concurrency bug can never masquerade as a speedup. */
void
checkIdentical(const SweepTiming& serial,
               const SweepTiming& threaded)
{
    if (serial.outcomes.size() != threaded.outcomes.size())
        fatal("serial/threaded sweeps ran different job counts");
    for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
        const SimResult& a = serial.outcomes[i].result;
        const SimResult& b = threaded.outcomes[i].result;
        if (a.ipc != b.ipc || a.cycles != b.cycles ||
            a.instructions != b.instructions ||
            a.stallCycles != b.stallCycles) {
            fatal("serial vs ", threaded.threads,
                  "-thread results diverged for job ",
                  serial.outcomes[i].tag, "/",
                  serial.outcomes[i].benchmark);
        }
    }
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

/** Four DTM variants on the IQ-constrained floorplan: warm-fork
 * requires every fork to share the warm-up's geometry, and these
 * differ only in technique flags restoreCheckpoint re-asserts. */
std::vector<std::pair<std::string, SimConfig>>
warmForkConfigs()
{
    auto make = [](bool toggling, bool throttle) {
        SimConfig config = experiments::iqBase();
        config.dtm.iqToggling = toggling;
        config.dtm.fetchThrottling = throttle;
        return config;
    };
    return {
        {"iq_base", make(false, false)},
        {"iq_toggling", make(true, false)},
        {"iq_throttle", make(false, true)},
        {"iq_toggle_throttle", make(true, true)},
    };
}

/**
 * Time the warm-fork path against the cold sweep it replaces: the
 * cold sweep simulates warm-up + measurement in every job; the
 * warm-fork sweep warms each benchmark once and forks the
 * measurement region per config. Serial vs 8-thread fork results
 * are checked bit-identical before any number is reported.
 */
WarmForkTiming
timeWarmFork(const std::vector<std::string>& benchmarks,
             std::uint64_t cycles, std::uint64_t base_seed)
{
    const auto configs = warmForkConfigs();
    WarmForkTiming t;
    t.configs = configs.size();
    t.warmupCycles = cycles / 2;
    t.measureCycles = cycles - t.warmupCycles;

    ExperimentRunner::Options serial_options;
    serial_options.threads = 1;
    serial_options.baseSeed = base_seed;

    experiments::WarmForkOptions warm;
    warm.warmConfig = experiments::iqBase();
    warm.warmupCycles = t.warmupCycles;

    auto timed = [](auto&& fn) {
        const auto start = std::chrono::steady_clock::now();
        auto outcomes = fn();
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        for (const ExperimentOutcome& o : outcomes) {
            if (!o.ok)
                fatal("warm-fork bench job ", o.tag, "/",
                      o.benchmark, " failed: ", o.error);
        }
        return std::make_pair(wall, std::move(outcomes));
    };

    auto [cold_wall, cold] = timed([&] {
        return experiments::runSweep(configs, benchmarks, cycles,
                                     serial_options);
    });
    t.coldWallSeconds = cold_wall;

    auto [warm_wall, warm_serial] = timed([&] {
        return experiments::runWarmForkSweep(
            configs, benchmarks, t.measureCycles, warm,
            serial_options);
    });
    t.warmWallSeconds = warm_wall;

    ExperimentRunner::Options threaded_options = serial_options;
    threaded_options.threads = 8;
    auto [threaded_wall, warm_threaded] = timed([&] {
        return experiments::runWarmForkSweep(
            configs, benchmarks, t.measureCycles, warm,
            threaded_options);
    });
    t.threadedWallSeconds = threaded_wall;

    if (warm_serial.size() != warm_threaded.size())
        fatal("warm-fork serial/threaded job counts diverged");
    for (std::size_t i = 0; i < warm_serial.size(); ++i) {
        if (experiments::hashSimResult(warm_serial[i].result) !=
            experiments::hashSimResult(warm_threaded[i].result)) {
            fatal("warm-fork serial vs 8-thread results diverged "
                  "for job ", warm_serial[i].tag, "/",
                  warm_serial[i].benchmark);
        }
    }
    return t;
}

/** Multi-process fabric vs in-process runner (DESIGN.md §15). */
struct FabricTiming
{
    std::size_t jobs = 0;
    std::uint64_t simCycles = 0;
    double inProcessWallSeconds = 0.0;
    /** (workers, wall seconds) per pool size. */
    std::vector<std::pair<int, double>> pools;
};

/** The paper's four DTM variants in the dotted-key vocabulary the
 * fabric ships over the wire (sim_config_io). */
std::vector<std::pair<std::string, Config>>
fabricConfigs()
{
    auto make = [](bool toggling, bool throttle) {
        Config cfg;
        if (toggling)
            cfg.set("dtm.toggling", "true");
        if (throttle)
            cfg.set("dtm.fetch_throttling", "true");
        return cfg;
    };
    return {
        {"iq_base", make(false, false)},
        {"iq_toggling", make(true, false)},
        {"iq_throttle", make(false, true)},
        {"iq_toggle_throttle", make(true, true)},
    };
}

/**
 * Time the sweep fabric at 1/2/8 worker processes against the
 * serial in-process runner on the same job matrix. The workers=1
 * row measures pure coordinator overhead (fork + IPC + result
 * transport); larger pools measure process-level scaling. Every
 * pool's outcome set is checked bit-identical to the in-process
 * reference before any number is reported.
 */
FabricTiming
timeFabric(const std::vector<std::string>& benchmarks,
           std::uint64_t cycles, std::uint64_t base_seed)
{
    fabric::SweepSpec spec;
    spec.configs = fabricConfigs();
    spec.benchmarks = benchmarks;
    spec.measureCycles = cycles;

    std::vector<std::pair<std::string, SimConfig>> sim_configs;
    for (const auto& [tag, config] : spec.configs)
        sim_configs.emplace_back(tag, simConfigFromConfig(config));

    ExperimentRunner::Options serial_options;
    serial_options.threads = 1;
    serial_options.baseSeed = base_seed;

    FabricTiming t;
    auto start = std::chrono::steady_clock::now();
    const auto reference = experiments::runSweep(
        sim_configs, benchmarks, cycles, serial_options);
    t.inProcessWallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    for (const ExperimentOutcome& o : reference) {
        if (!o.ok)
            fatal("fabric bench reference job ", o.tag, "/",
                  o.benchmark, " failed: ", o.error);
        t.simCycles += o.result.cycles;
    }
    t.jobs = reference.size();

    for (const int workers : {1, 2, 8}) {
        fabric::FabricOptions options;
        options.workers = workers;
        options.baseSeed = base_seed;
        fabric::FabricCoordinator coordinator(options);
        start = std::chrono::steady_clock::now();
        const auto outcomes = coordinator.runSweep(spec);
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (outcomes.size() != reference.size())
            fatal("fabric sweep at ", workers,
                  " workers ran a different job count");
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            if (!outcomes[i].ok)
                fatal("fabric bench job ", outcomes[i].tag, "/",
                      outcomes[i].benchmark,
                      " failed: ", outcomes[i].error);
            if (experiments::hashSimResult(outcomes[i].result) !=
                experiments::hashSimResult(reference[i].result)) {
                fatal("fabric sweep at ", workers,
                      " workers diverged from the in-process "
                      "runner for job ", outcomes[i].tag, "/",
                      outcomes[i].benchmark);
            }
        }
        t.pools.emplace_back(workers, wall);
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
 * Time 1/2/4-core lockstep runs. Hash-gated like every other
 * section: the serial pass and a 3-thread runCmpJobs pass must
 * produce identical result hashes before any number is reported,
 * so a concurrency bug can't masquerade as a speedup. The reported
 * wall times come from the serial pass (one simulator per row, no
 * pool interference).
 */
CmpTiming
timeCmp(std::uint64_t cycles)
{
    const std::vector<std::string> mix = {"art", "mesa", "eon",
                                          "mcf"};
    std::vector<CmpJob> jobs;
    for (const int cores : {1, 2, 4}) {
        CmpJob job;
        job.tag = std::to_string(cores) + "core";
        job.config.base = experiments::iqBase();
        job.config.cores = cores;
        job.config.benchmarks.assign(mix.begin(),
                                     mix.begin() + cores);
        job.config.migration.enabled = cores > 1;
        job.cycles = cycles;
        jobs.push_back(std::move(job));
    }

    const std::vector<CmpJobOutcome> serial = runCmpJobs(jobs, 1);
    const std::vector<CmpJobOutcome> pooled = runCmpJobs(jobs, 3);
    if (serial.size() != pooled.size())
        fatal("cmp bench serial/pooled job counts diverged");

    CmpTiming t;
    for (std::size_t i = 0; i < serial.size(); ++i) {
        if (serial[i].hash != pooled[i].hash)
            fatal("cmp bench serial vs 3-thread results diverged "
                  "for job ", serial[i].tag);
        CmpTiming::Row row;
        row.tag = serial[i].tag;
        row.cores = serial[i].result.cores.empty()
                        ? 0
                        : static_cast<int>(
                              serial[i].result.cores.size());
        row.wallSeconds = serial[i].wallSeconds;
        for (const SimResult& c : serial[i].result.cores)
            row.simCycles += c.cycles;
        row.hash = serial[i].hash;
        t.rows.push_back(std::move(row));
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
    const std::uint64_t cycles =
        envU64("TEMPEST_CYCLES", smoke ? 200'000 : 2'000'000);
    const std::uint64_t base_seed = envU64("TEMPEST_SEED", 1);
    const std::vector<std::string> benchmarks = benchmarkList();

    std::vector<SweepTiming> timings;
    for (const ThermalSolver solver :
         {ThermalSolver::Expm, ThermalSolver::Euler}) {
        SweepTiming serial =
            timeSweep(solver, 1, benchmarks, cycles, base_seed);
        SweepTiming threaded =
            timeSweep(solver, 8, benchmarks, cycles, base_seed);
        checkIdentical(serial, threaded);
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

    const WarmForkTiming warm_fork =
        timeWarmFork(benchmarks, cycles, base_seed);
    std::printf(
        "warm-fork sweep (%zu configs, %llu warm-up + %llu "
        "measure cycles): cold %.2fs, warm-fork %.2fs serial "
        "(%.2fx), %.2fs at 8 threads\n",
        warm_fork.configs,
        static_cast<unsigned long long>(warm_fork.warmupCycles),
        static_cast<unsigned long long>(warm_fork.measureCycles),
        warm_fork.coldWallSeconds, warm_fork.warmWallSeconds,
        warm_fork.speedup(), warm_fork.threadedWallSeconds);

    const FabricTiming fabric_timing =
        timeFabric(benchmarks, cycles, base_seed);
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
              warm_fork, fabric_timing, cmp_timing, benchmarks,
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
