#include "sim/runner.hh"

#include <stdlib.h>

#include <chrono>
#include <filesystem>
#include <map>

#include "common/log.hh"
#include "sim/checkpoint/checkpoint.hh"

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

/** Warm up and save: the snapshot after `cycles` cycles. */
std::string
warmUp(const CmpSimConfig& config, std::uint64_t cycles)
{
    CmpSimulator sim(config);
    sim.runTo(cycles);
    return sim.saveCheckpoint();
}

/** Restore, reset, run: `cycles` measured cycles after
 * `snapshot`. */
CmpResult
forkFrom(const CmpSimConfig& config, const std::string& snapshot,
         std::uint64_t cycles)
{
    CmpSimulator sim(config);
    sim.restoreCheckpoint(snapshot);
    sim.resetMeasurement();
    return sim.run(cycles);
}

CmpSimConfig
singleCore(const SimConfig& config, const std::string& benchmark,
           std::uint64_t seed)
{
    CmpSimConfig cmp;
    cmp.base = config;
    cmp.base.runSeed = seed;
    cmp.benchmarks = {benchmark};
    return cmp;
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

Outcome::Outcome(const Job& job)
    : tag(job.tag), seed(job.config.base.runSeed)
{
    for (const std::string& b : job.config.benchmarks)
        benchmark += (benchmark.empty() ? "" : ",") + b;
}

Outcome
runJob(const Job& job)
{
    Outcome out(job);
    // det:allow(wallSeconds metric only; never feeds simulation state)
    const auto start = std::chrono::steady_clock::now();
    try {
        if (job.warm) {
            writeCheckpointFile(job.snapshot,
                                warmUp(job.config, job.cycles));
        } else if (!job.snapshot.empty()) {
            out.result =
                forkFrom(job.config,
                         readCheckpointFile(job.snapshot),
                         job.cycles);
        } else {
            CmpSimulator sim(job.config);
            out.result = sim.run(job.cycles);
        }
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

std::vector<Outcome>
runJobs(const std::vector<Job>& jobs, int threads)
{
    if (threads <= 0) {
        threads = std::max(
            1, static_cast<int>(std::thread::hardware_concurrency()));
    }
    std::vector<Outcome> outcomes(jobs.size());
    experiments::parallelFor(
        jobs.size(), threads,
        [&](std::size_t i) { outcomes[i] = runJob(jobs[i]); });
    return outcomes;
}

namespace experiments
{

Job
singleCoreJob(std::string tag, const SimConfig& config,
              const std::string& benchmark, std::uint64_t cycles)
{
    Job job;
    job.tag = std::move(tag);
    job.config = singleCore(config, benchmark, config.runSeed);
    job.cycles = cycles;
    return job;
}

std::vector<Job>
sweepJobs(
    const std::vector<std::pair<std::string, SimConfig>>& configs,
    const std::vector<std::string>& benchmarks,
    std::uint64_t cycles, std::uint64_t base_seed)
{
    std::vector<Job> jobs;
    for (const auto& [tag, config] : configs) {
        for (const std::string& benchmark : benchmarks) {
            Job& job = jobs.emplace_back(
                singleCoreJob(tag, config, benchmark, cycles));
            job.config.base.runSeed =
                deriveRunSeed(base_seed, benchmark, tag);
        }
    }
    return jobs;
}

std::vector<Job>
warmForkJobs(
    const std::vector<std::pair<std::string, SimConfig>>& configs,
    const std::vector<std::string>& benchmarks,
    const SimConfig& warm_config, std::uint64_t warmup_cycles,
    std::uint64_t measure_cycles, std::uint64_t base_seed,
    const std::string& spill_dir)
{
    if (spill_dir.empty())
        fatal("a warm-fork sweep needs a spill directory for its "
              "snapshots");
    std::vector<Job> jobs;
    for (const std::string& benchmark : benchmarks) {
        Job& warm = jobs.emplace_back(singleCoreJob(
            "warmup", warm_config, benchmark, warmup_cycles));
        warm.config.base.runSeed =
            deriveRunSeed(base_seed, benchmark, "warmup");
        warm.snapshot = spill_dir + "/warm_" + benchmark + ".ckpt";
        warm.warm = true;
    }
    for (const auto& [tag, config] : configs) {
        for (std::size_t b = 0; b < benchmarks.size(); ++b) {
            Job& fork = jobs.emplace_back(singleCoreJob(
                tag, config, benchmarks[b], measure_cycles));
            fork.config.base.runSeed = jobs[b].config.base.runSeed;
            fork.snapshot = jobs[b].snapshot;
        }
    }
    return jobs;
}

std::vector<Outcome>
runWarmFork(const std::vector<Job>& jobs, const Backend& backend)
{
    std::vector<Outcome> outcomes(jobs.size());
    std::vector<std::size_t> phase[2];
    for (std::size_t i = 0; i < jobs.size(); ++i)
        phase[jobs[i].warm ? 0 : 1].push_back(i);

    // Failed warm-ups, by the snapshot they were to write.
    std::map<std::string, std::string> failed;
    for (const int p : {0, 1}) {
        std::vector<Job> batch;
        std::vector<std::size_t> index;
        for (const std::size_t i : phase[p]) {
            const auto it = failed.find(jobs[i].snapshot);
            if (it != failed.end()) {
                outcomes[i] = Outcome(jobs[i]);
                outcomes[i].error = "warm-up failed: " + it->second;
                continue;
            }
            batch.push_back(jobs[i]);
            index.push_back(i);
        }
        std::vector<Outcome> done =
            batch.empty() ? std::vector<Outcome>() : backend(batch);
        for (std::size_t k = 0; k < index.size(); ++k) {
            if (p == 0 && !done[k].ok)
                failed[batch[k].snapshot] = done[k].error;
            outcomes[index[k]] = std::move(done[k]);
        }
    }
    return outcomes;
}

SpillDir::SpillDir()
{
    std::string tmpl =
        (std::filesystem::temp_directory_path() /
         "tempest_spill_XXXXXX")
            .string();
    if (!::mkdtemp(tmpl.data()))
        fatal("cannot create a spill directory from ", tmpl);
    path_ = tmpl;
}

SpillDir::~SpillDir()
{
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
}

std::string
warmSnapshot(const SimConfig& warm_config,
             const std::string& benchmark, std::uint64_t seed,
             std::uint64_t warmup_cycles)
{
    return warmUp(singleCore(warm_config, benchmark, seed),
                  warmup_cycles);
}

SimResult
runFromSnapshot(const SimConfig& config,
                const std::string& benchmark, std::uint64_t seed,
                const std::string& snapshot,
                std::uint64_t measure_cycles)
{
    return forkFrom(singleCore(config, benchmark, seed), snapshot,
                    measure_cycles)
        .cores.front();
}

} // namespace experiments

} // namespace tempest
