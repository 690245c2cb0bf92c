/**
 * @file
 * The paper's evaluation (§4) as one registry of sections and
 * claims (DESIGN.md §4).
 *
 * A section is one table, figure or ablation: a cross product of
 * tagged configurations and benchmarks at one cycle count, plus
 * the renderer that prints it. A claim is one of §4's qualitative
 * results on shortened runs: jobs at a fixed seed and cycle count,
 * plus checks of measured values against bounds.
 *
 * `tempest_sweep --paper` runs any selection of sections and
 * claims as one job list on the thread backend (sim/runner.hh);
 * test_integration runs the claims, one test case per claim.
 *
 * The registry also holds the job lists of the two scaling sweeps,
 * `tempest_sweep --paper-scale` and `--cmp-scale`.
 */

#ifndef TEMPEST_SIM_PAPER_HH
#define TEMPEST_SIM_PAPER_HH

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/runner.hh"

namespace tempest
{
namespace paper
{

/** One section's results, looked up by (config tag, benchmark). */
class Results
{
  public:
    /** Index the outcomes of one section's jobs (all ok); they
     * must outlive this object, which points into them. */
    explicit Results(std::span<const Outcome> outcomes);

    /** Result of (tag, benchmark); fatal if absent. */
    const SimResult& get(const std::string& tag,
                         const std::string& benchmark) const;

  private:
    std::map<std::string, const SimResult*> results_;
};

/** One table, figure or ablation. */
struct Section
{
    /** `tempest_sweep --paper` selector, e.g. "fig6". */
    std::string name;
    std::vector<std::pair<std::string, SimConfig>> configs;
    std::vector<std::string> benchmarks;
    /** Default simulated cycles per run. */
    std::uint64_t cycles = 0;
    /** Print the section to stdout. */
    void (*render)(const Results& results) = nullptr;
};

/** Every section, in EXPERIMENTS.md order. */
const std::vector<Section>& sections();

/**
 * The section's jobs at `cycles` per run, configs-major. Every job
 * of a benchmark runs seed deriveRunSeed(base_seed, benchmark,
 * "paper"), so all configurations see the same instruction stream:
 * the paper compares DTM policies on the same workload.
 */
std::vector<Job> sectionJobs(const Section& section,
                             std::uint64_t cycles,
                             std::uint64_t base_seed);

/** One measured value against its bound. */
struct Check
{
    std::string what;
    double measured = 0;
    /** ">", ">=", "<", "<=", "==" (exact), or "" when the check
     * could not be made (a failed job). */
    const char* op = "";
    double bound = 0;
    bool pass = false;
};

/** "what: measured op bound  ok|FAILED", values at 10
 * significant digits. */
std::string describe(const Check& check);

/** One of §4's qualitative results on shortened runs. */
struct Claim
{
    /** Test case name (an identifier). */
    std::string name;
    /**
     * Jobs at a fixed seed and cycle count.
     * The tag names the configuration, so jobs with equal (tag,
     * benchmark, cycles) are one job.
     */
    std::vector<Job> jobs;
    /** Checks over the results of `jobs`, in order. */
    std::vector<Check> (*checks)(const std::vector<SimResult>& runs) =
        nullptr;
};

/** Every claim. */
const std::vector<Claim>& claims();

/**
 * Every claim's jobs as one batch in which a job several claims
 * read runs once.
 */
class ClaimBatch
{
  public:
    ClaimBatch();

    const std::vector<Job>& jobs() const { return jobs_; }

    /**
     * Checks of claims()[c] over the outcomes of jobs(), in order.
     * A failed job yields one failing check that names it.
     */
    std::vector<Check>
    evaluate(std::size_t c,
             std::span<const Outcome> outcomes) const;

  private:
    std::vector<Job> jobs_;
    /** Per claim, the batch index of each of its jobs. */
    std::vector<std::vector<std::size_t>> uses_;
};

/**
 * The paper-scale DTM sweep's configurations: the four
 * IQ-floorplan variants (base, activity toggling, fetch
 * throttling, and both), which differ only in the DTM flags a
 * fork re-asserts, so they can share one warm-up.
 */
std::vector<std::pair<std::string, SimConfig>> scaleConfigs();

/**
 * The CMP/3D scaling matrix at `cycles` per job: 1-, 2- and
 * 4-core dies, flat and with a stacked DRAM layer, one benchmark
 * per core from a memory-bound-first mix (so the 3D rows heat),
 * cross-core migration on for every multicore die.
 */
std::vector<Job> cmpScaleJobs(std::uint64_t cycles);

} // namespace paper
} // namespace tempest

#endif // TEMPEST_SIM_PAPER_HH
