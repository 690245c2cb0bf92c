#include "sim/runner.hh"

#include <chrono>
#include <cstdlib>
#include <thread>

#include "common/guarded.hh"
#include "sim/checkpoint/checkpoint.hh"
#include "workload/profile.hh"

namespace tempest
{

namespace
{

/** FNV-1a 64-bit over a byte string. */
std::uint64_t
fnv1a(std::uint64_t h, std::string_view s)
{
    constexpr std::uint64_t kPrime = 0x100000001b3ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= kPrime;
    }
    return h;
}

/** splitmix64 finalizer: full-avalanche 64-bit mix. */
std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

std::uint64_t
deriveRunSeed(std::uint64_t base_seed, std::string_view benchmark,
              std::string_view config_tag)
{
    std::uint64_t h = 0xcbf29ce484222325ULL; // FNV offset basis
    h = fnv1a(h, benchmark);
    h = fnv1a(h, "\x1f"); // separator: ("ab","c") != ("a","bc")
    h = fnv1a(h, config_tag);
    return mix64(base_seed ^ h);
}

std::size_t
ExperimentRunner::add(ExperimentJob job)
{
    jobs_.push_back(std::move(job));
    return jobs_.size() - 1;
}

std::size_t
ExperimentRunner::add(std::string tag, const SimConfig& config,
                      std::string benchmark, std::uint64_t cycles)
{
    ExperimentJob job;
    job.tag = std::move(tag);
    job.benchmark = std::move(benchmark);
    job.config = config;
    job.cycles = cycles;
    return add(std::move(job));
}

int
ExperimentRunner::defaultThreads()
{
    if (const char* env = std::getenv("TEMPEST_THREADS")) {
        const int n = std::atoi(env);
        if (n > 0)
            return n;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

ExperimentOutcome
ExperimentRunner::runJob(const ExperimentJob& job,
                         std::uint64_t base_seed)
{
    ExperimentOutcome out;
    out.tag = job.tag;
    out.benchmark = job.benchmark;
    out.seed = job.deriveSeed
                   ? deriveRunSeed(base_seed, job.benchmark,
                                   job.tag)
                   : job.config.runSeed;
    // det:allow(wallSeconds metric only; never feeds simulation state)
    const auto start = std::chrono::steady_clock::now();
    try {
        SimConfig config = job.config;
        config.runSeed = out.seed;
        Simulator sim(config, spec2000(job.benchmark));
        out.result = sim.run(job.cycles);
        out.ok = true;
    } catch (const std::exception& e) {
        out.error = e.what();
    } catch (...) {
        out.error = "unknown exception";
    }
    out.wallSeconds =
        std::chrono::duration<double>(
            // det:allow(wallSeconds metric only; never feeds simulation state)
            std::chrono::steady_clock::now() - start)
            .count();
    return out;
}

std::vector<ExperimentOutcome>
ExperimentRunner::run()
{
    const std::vector<ExperimentJob> jobs = std::move(jobs_);
    jobs_.clear();

    const std::size_t total = jobs.size();
    std::vector<ExperimentOutcome> outcomes(total);
    // progress_mutex guards `done` and serializes the progress
    // callback (locals can't carry GUARDED_BY; the lint
    // lock-discipline pass still checks the acquire pairing).
    Mutex progress_mutex;
    std::size_t done = 0;
    experiments::parallelFor(
        total,
        options_.threads > 0 ? options_.threads : defaultThreads(),
        [&](std::size_t i) {
            outcomes[i] = runJob(jobs[i], options_.baseSeed);
            if (options_.progress) {
                MutexLock lock(progress_mutex);
                options_.progress(outcomes[i], ++done, total);
            }
        });
    return outcomes;
}

namespace experiments
{

std::string
warmSnapshot(const SimConfig& warm_config,
             const std::string& benchmark, std::uint64_t seed,
             std::uint64_t warmup_cycles)
{
    SimConfig config = warm_config;
    config.runSeed = seed;
    Simulator sim(config, spec2000(benchmark));
    sim.runTo(warmup_cycles);
    return sim.saveCheckpoint();
}

SimResult
runFromSnapshot(const SimConfig& config,
                const std::string& benchmark, std::uint64_t seed,
                const std::string& snapshot,
                std::uint64_t measure_cycles,
                bool reset_measurement)
{
    SimConfig forked = config;
    forked.runSeed = seed;
    Simulator sim(forked, spec2000(benchmark));
    sim.restoreCheckpoint(snapshot);
    if (reset_measurement)
        sim.resetMeasurement();
    return sim.run(measure_cycles);
}

std::vector<ExperimentOutcome>
runWarmForkSweep(
    const std::vector<std::pair<std::string, SimConfig>>& configs,
    const std::vector<std::string>& benchmarks,
    std::uint64_t measure_cycles, const WarmForkOptions& warm,
    const ExperimentRunner::Options& options)
{
    const int threads = options.threads > 0
                            ? options.threads
                            : ExperimentRunner::defaultThreads();
    const std::size_t num_benchmarks = benchmarks.size();

    // Phase 1: one warm-up per benchmark under the shared neutral
    // configuration. Every fork of a benchmark reuses the
    // warm-up's derived seed so the instruction stream continues
    // identically in all of them.
    std::vector<std::uint64_t> warm_seeds(num_benchmarks);
    std::vector<std::string> snapshots(num_benchmarks);
    std::vector<std::string> warm_errors(num_benchmarks);
    parallelFor(num_benchmarks, threads, [&](std::size_t b) {
        const std::string& benchmark = benchmarks[b];
        warm_seeds[b] = deriveRunSeed(options.baseSeed, benchmark,
                                      warm.warmTag);
        try {
            std::string bytes =
                warmSnapshot(warm.warmConfig, benchmark,
                             warm_seeds[b], warm.warmupCycles);
            if (!warm.spillDir.empty()) {
                writeCheckpointFile(warm.spillDir + "/warm_" +
                                        benchmark + ".ckpt",
                                    bytes);
            } else {
                snapshots[b] = std::move(bytes);
            }
        } catch (const std::exception& e) {
            warm_errors[b] = e.what();
        } catch (...) {
            warm_errors[b] = "unknown exception";
        }
    });

    // Phase 2: fork every (config, benchmark) job from its
    // benchmark's snapshot. Outcome order matches runSweep.
    const std::size_t total = configs.size() * num_benchmarks;
    std::vector<ExperimentOutcome> outcomes(total);
    Mutex progress_mutex;
    std::size_t done = 0;
    parallelFor(total, threads, [&](std::size_t i) {
        const std::size_t c = i / num_benchmarks;
        const std::size_t b = i % num_benchmarks;
        ExperimentOutcome& out = outcomes[i];
        out.tag = configs[c].first;
        out.benchmark = benchmarks[b];
        out.seed = warm_seeds[b];
        // det:allow(wallSeconds metric only; never feeds simulation state)
        const auto start = std::chrono::steady_clock::now();
        if (!warm_errors[b].empty()) {
            out.error = "warm-up failed: " + warm_errors[b];
        } else {
            try {
                const std::string spilled =
                    warm.spillDir.empty()
                        ? std::string()
                        : readCheckpointFile(
                              warm.spillDir + "/warm_" +
                              benchmarks[b] + ".ckpt");
                out.result = runFromSnapshot(
                    configs[c].second, benchmarks[b],
                    warm_seeds[b],
                    warm.spillDir.empty() ? snapshots[b]
                                          : spilled,
                    measure_cycles, warm.resetMeasurement);
                out.ok = true;
            } catch (const std::exception& e) {
                out.error = e.what();
            } catch (...) {
                out.error = "unknown exception";
            }
        }
        out.wallSeconds =
            std::chrono::duration<double>(
                // det:allow(wallSeconds metric only; never feeds simulation state)
                std::chrono::steady_clock::now() - start)
                .count();
        if (options.progress) {
            MutexLock lock(progress_mutex);
            options.progress(out, ++done, total);
        }
    });
    return outcomes;
}

std::vector<ExperimentOutcome>
runSweep(
    const std::vector<std::pair<std::string, SimConfig>>& configs,
    const std::vector<std::string>& benchmarks,
    std::uint64_t cycles, const ExperimentRunner::Options& options)
{
    ExperimentRunner runner(options);
    for (const auto& [tag, config] : configs) {
        for (const std::string& benchmark : benchmarks)
            runner.add(tag, config, benchmark, cycles);
    }
    return runner.run();
}

} // namespace experiments

} // namespace tempest
