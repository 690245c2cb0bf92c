/**
 * @file
 * The job executor (DESIGN.md §8).
 *
 * Every simulation a sweep runs is a Job: a tag, a CmpSimConfig
 * (cores = 1 is the single-core simulator, and base.runSeed is the
 * exact seed), a cycle count, and optionally a snapshot file that
 * a warm job writes and a fork job reads. runJob() executes one
 * job on the calling thread and captures any error into its
 * Outcome. A backend runs a job list and returns outcomes by
 * index: runJobs() spreads the list over threads, and
 * fabric::FabricCoordinator::runJobs() over worker processes. The
 * outcomes never depend on the backend or its size:
 *
 * - the job builders set every seed (deriveRunSeed over the job's
 *   identity); the executor never derives one;
 * - outcomes are stored by index, never by completion order;
 * - every job is an independent simulator.
 *
 * Warm-fork (DESIGN.md §11) is a two-phase job list:
 * warmForkJobs() builds it and runWarmFork() runs its warm jobs,
 * then its forks, on whichever backend it is given.
 */

#ifndef TEMPEST_SIM_RUNNER_HH
#define TEMPEST_SIM_RUNNER_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "sim/cmp/cmp_simulator.hh"
#include "sim/simulator.hh"

namespace tempest
{

/**
 * Per-run seed derived from the experiment identity. Stable across
 * platforms and library versions (FNV-1a over the strings, mixed
 * with the base seed through a splitmix64 finalizer), so a given
 * (baseSeed, benchmark, config tag) names the same simulation
 * forever, independent of how many sibling jobs a sweep contains
 * or the order they execute in.
 */
std::uint64_t deriveRunSeed(std::uint64_t base_seed,
                            std::string_view benchmark,
                            std::string_view config_tag);

/** One simulation to execute. */
struct Job
{
    /** Configuration identity within the sweep (row label, e.g.
     * "iq_toggling"). */
    std::string tag;
    /** The simulation: base.runSeed is its exact seed, and
     * cores = 1 is the single-core simulator. */
    CmpSimConfig config;
    /** Cycles to run (a warm job's warm-up length). */
    std::uint64_t cycles = 0;
    /** Snapshot file, if non-empty. A warm job writes it after
     * `cycles`; any other job restores it, zeroes the measurement
     * and runs `cycles` more (a fork). */
    std::string snapshot;
    bool warm = false;
};

/** Result (or captured failure) of one job. */
struct Outcome
{
    Outcome() = default;
    /** The not-yet-run outcome of `job`: its tag, benchmarks and
     * seed. */
    explicit Outcome(const Job& job);

    std::string tag;
    /** The job's benchmarks, comma-separated. */
    std::string benchmark;
    std::uint64_t seed = 0; ///< runSeed the simulation used
    bool ok = false;
    std::string error;      ///< failure description when !ok
    /** Valid only when ok; empty for a warm job. A single-core
     * job's SimResult is result.cores.front(). */
    CmpResult result;
    /** Wall-clock seconds this job took (simulation only, not
     * queueing); informational, never part of the result hash. */
    double wallSeconds = 0;
};

/**
 * Execute one job on the calling thread — the one job function of
 * every backend, so results cannot depend on the backend.
 * Exceptions are captured into the outcome.
 */
Outcome runJob(const Job& job);

/** A job list in, outcomes by index out. */
using Backend =
    std::function<std::vector<Outcome>(const std::vector<Job>&)>;

/**
 * The thread backend: run `jobs` on `threads` threads (<= 0:
 * hardware concurrency) and return outcomes by index.
 */
std::vector<Outcome> runJobs(const std::vector<Job>& jobs,
                             int threads);

namespace experiments
{

/**
 * Run `fn(i)` for every i in [0, total) on min(threads, total)
 * workers (at least one) pulling indices from one shared atomic
 * counter; a single worker runs on the calling thread. This is the
 * in-process pool of every sweep: fn(i) writes only slot i of a
 * result vector, so results never depend on the worker count.
 */
template <typename Fn>
void
parallelFor(std::size_t total, int threads, Fn&& fn)
{
    if (total == 0)
        return;
    threads = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(std::max(threads, 1)), total));
    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= total)
                return;
            fn(i);
        }
    };
    if (threads == 1) {
        worker();
        return;
    }
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t)
        pool.emplace_back(worker);
    for (std::thread& t : pool)
        t.join();
}

/** A single-core job: `config` (its runSeed is the seed) running
 * `benchmark` for `cycles`. */
Job singleCoreJob(std::string tag, const SimConfig& config,
                  const std::string& benchmark,
                  std::uint64_t cycles);

/**
 * The cross product of tagged configurations and benchmarks,
 * configs-major. Job (tag, benchmark) runs seed
 * deriveRunSeed(base_seed, benchmark, tag).
 */
std::vector<Job> sweepJobs(
    const std::vector<std::pair<std::string, SimConfig>>& configs,
    const std::vector<std::string>& benchmarks,
    std::uint64_t cycles, std::uint64_t base_seed);

/**
 * Warm-state forking (see DESIGN.md §11) as one job list.
 *
 * Instead of every (config, benchmark) job re-simulating the same
 * warm-up prefix, each benchmark is warmed up once under the
 * shared neutral `warm_config` and snapshotted to
 * `<spill_dir>/warm_<benchmark>.ckpt`, and every configuration
 * forks from that snapshot. The list holds one warm job per
 * benchmark (tag "warmup"), then every fork, configs-major. All
 * jobs of a benchmark run the warm-up's seed,
 * deriveRunSeed(base_seed, benchmark, "warmup"), so the
 * instruction stream continues identically in every fork: the
 * paper's methodology (same workload, DTM policies differ).
 *
 * Discipline: the warm-up configuration must use the same
 * pipeline geometry, floorplan variant, and thermal parameters as
 * every fork (restoreCheckpoint enforces this), and should keep
 * all DTM techniques off so no technique-specific state leaks
 * into the snapshot. Config-derived controls (round-robin, port
 * mapping, fetch throttle) are re-asserted per fork by
 * restoreCheckpoint(). fatal() if `spill_dir` is empty.
 */
std::vector<Job> warmForkJobs(
    const std::vector<std::pair<std::string, SimConfig>>& configs,
    const std::vector<std::string>& benchmarks,
    const SimConfig& warm_config, std::uint64_t warmup_cycles,
    std::uint64_t measure_cycles, std::uint64_t base_seed,
    const std::string& spill_dir);

/**
 * Run `jobs` in two phases on `backend`: first its warm jobs,
 * then every other job. A job reading the snapshot of a warm job
 * that failed does not run; it fails with "warm-up failed:
 * <error>". Outcomes are indexed like `jobs`, and a list without
 * warm jobs is one plain backend call.
 */
std::vector<Outcome> runWarmFork(const std::vector<Job>& jobs,
                                 const Backend& backend);

/** A private directory for warm-fork snapshots under the system
 * temporary directory, removed with its contents on destruction;
 * fatal() if it cannot be made. */
class SpillDir
{
  public:
    SpillDir();
    ~SpillDir();
    SpillDir(const SpillDir&) = delete;
    SpillDir& operator=(const SpillDir&) = delete;

    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

/**
 * Warm one benchmark under `warm_config` for `warmup_cycles` and
 * return the snapshot bytes — what a warm job writes, for
 * long-lived services (tempest_serve's warm-snapshot pool) that
 * keep snapshots in memory across requests. `seed` is the exact
 * runSeed the snapshot bakes in; every fork must use the same one
 * (restoreCheckpoint enforces it).
 */
std::string warmSnapshot(const SimConfig& warm_config,
                         const std::string& benchmark,
                         std::uint64_t seed,
                         std::uint64_t warmup_cycles);

/**
 * Fork a simulation from `snapshot` under `config` and run
 * `measure_cycles` more cycles — what a fork job does. `config`
 * may differ from the snapshot's warm-up config in DTM technique
 * settings (restoreCheckpoint re-asserts config-derived controls)
 * but must share benchmark, seed, and geometry. The result covers
 * only the post-fork region. Deterministic: the same
 * (snapshot, config, measure_cycles) always returns a
 * bit-identical SimResult.
 */
SimResult runFromSnapshot(const SimConfig& config,
                          const std::string& benchmark,
                          std::uint64_t seed,
                          const std::string& snapshot,
                          std::uint64_t measure_cycles);

} // namespace experiments

} // namespace tempest

#endif // TEMPEST_SIM_RUNNER_HH
