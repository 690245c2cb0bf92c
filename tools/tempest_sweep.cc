/**
 * @file
 * Sweeps: the paper's evaluation, and the sharded
 * multi-process sweep (DESIGN.md §15).
 *
 *   tempest_sweep --paper <section|claims|all> [cycles]
 *                 [--workers N] [--base-seed S]
 *   tempest_sweep --paper-scale [measure_cycles]
 *                 [--workers N] [--base-seed S]
 *                 [--spill-dir DIR] [--job-timeout SECONDS]
 *                 [--in-process]
 *   tempest_sweep --cmp-scale [cycles] [--workers N]
 *   tempest_sweep --worker-fd N       (internal: worker mode)
 *
 * --paper runs sections and claims of the paper registry
 * (src/sim/paper.hh) as one batch on the in-process runner and
 * prints Tables 4-6, Figures 6-8 and the ablations, then each
 * claim's checks as measured value against bound. A section is
 * one of table4, fig6, table5, fig7, table6, fig8,
 * toggle-threshold, long-wire or sampling; `all` is every section
 * plus the claims. [cycles] overrides every selected section's
 * run length; the claims take none, because their bounds hold at
 * their own fixed cycle counts. Within a section every
 * configuration of a benchmark runs the same seed, derived from
 * (--base-seed, benchmark); the claims keep their fixed seeds.
 * Every failed job is reported on stderr, and the exit status is
 * 1 if any job or claim failed. Output does not depend on
 * --workers (default: all cores).
 *
 * --cmp-scale runs the CMP/3D scaling matrix: 1-, 2- and 4-core
 * dies, flat and with a stacked DRAM layer, cross-core migration
 * on for every multicore job. Jobs run on an in-process thread
 * pool (each is one independent lockstep CmpSimulator); rows end
 * in the job's hashCmpResult and the table ends in a sweep_hash
 * with the same merge-order chain as --paper-scale, so the
 * scheduled CI sweep can gate on one digest.
 *
 * --paper-scale runs the paper-scale DTM sweep (four IQ-floorplan
 * DTM variants x three benchmarks, each benchmark warmed once for
 * measure_cycles/10 cycles and every variant forked from that
 * snapshot) across a pool of worker *processes* coordinated by
 * src/sim/fabric. Workers are exec'd copies of this binary in
 * --worker-fd mode, so the sweep exercises the exact process
 * topology the fabric uses in CI.
 *
 * --in-process runs the identical job graph through the
 * single-process experiments::runWarmForkSweep instead — the
 * reference the fabric is gated against. Both paths print one row
 * per job (IPC, stall share, hottest block, DTM event counts)
 * ending in its result_hash, plus a final `sweep_hash` (FNV-1a
 * over the per-job hashes in merge order); bit-identity of the
 * two paths means the sweep_hash lines match at any worker count
 * and across any failure/recovery history.
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/config.hh"
#include "common/log.hh"
#include "sim/checkpoint/stateio.hh"
#include "sim/cmp/cmp_simulator.hh"
#include "sim/experiment.hh"
#include "sim/fabric/coordinator.hh"
#include "sim/fabric/worker.hh"
#include "sim/paper.hh"
#include "sim/runner.hh"
#include "sim/sim_config_io.hh"

namespace
{

using namespace tempest;

/** The paper-scale matrix in dotted config keys: the four
 * IQ-floorplan DTM variants (an empty config is iqBase(); see
 * sim_config_io defaults). */
std::vector<std::pair<std::string, Config>>
paperScaleConfigs()
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

/** `text` as a whole decimal integer; false if it is not one. */
bool
wholeNumber(const char* text, std::uint64_t& value)
{
    // strtoull alone would skip blanks, accept a sign (wrapping
    // "-1") and stop at trailing garbage.
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    char* end = nullptr;
    errno = 0;
    value = std::strtoull(text, &end, 10);
    return *end == '\0' && errno != ERANGE;
}

std::uint64_t
parseCycles(const char* text, const char* what)
{
    std::uint64_t v = 0;
    if (!wholeNumber(text, v) || v == 0)
        fatal(what, ": '", text, "' is not a valid cycle count");
    return v;
}

/** Flags of the sweep modes; zero means the mode's default. */
struct Options
{
    std::uint64_t cycles = 0;
    int workers = 0;
    std::uint64_t baseSeed = 1;
    std::string spillDir;
    double jobTimeout = 0;
    bool inProcess = false;
};

/**
 * Parse argv[first..] for `mode`. --cmp-scale takes only
 * --workers; --paper also takes --base-seed; --paper-scale takes
 * every flag. Anything else is the positional cycle count.
 */
Options
parseOptions(int argc, char** argv, int first, const char* mode)
{
    const bool cmp = std::strcmp(mode, "--cmp-scale") == 0;
    const bool fabric = std::strcmp(mode, "--paper-scale") == 0;
    Options o;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() {
            if (++i >= argc)
                fatal(arg, " needs a value");
            return argv[i];
        };
        if (arg == "--workers") {
            const char* text = value();
            std::uint64_t v = 0;
            if (!wholeNumber(text, v) || v < 1 || v > INT_MAX)
                fatal("--workers: '", text,
                      "' is not a count >= 1");
            o.workers = static_cast<int>(v);
        } else if (arg == "--base-seed" && !cmp) {
            const char* text = value();
            if (!wholeNumber(text, o.baseSeed))
                fatal("--base-seed: '", text,
                      "' is not a non-negative integer");
        } else if (arg == "--spill-dir" && fabric) {
            o.spillDir = value();
        } else if (arg == "--job-timeout" && fabric) {
            const char* text = value();
            char* end = nullptr;
            errno = 0;
            o.jobTimeout = std::strtod(text, &end);
            if (!(std::isdigit(static_cast<unsigned char>(text[0])) ||
                  text[0] == '.') ||
                *end != '\0' || errno == ERANGE ||
                !std::isfinite(o.jobTimeout))
                fatal("--job-timeout: '", text,
                      "' is not a number of seconds >= 0");
        } else if (arg == "--in-process" && fabric) {
            o.inProcess = true;
        } else {
            o.cycles = parseCycles(argv[i], mode);
        }
    }
    return o;
}

/**
 * Run the paper sections and claims `selector` names as one
 * batch, print them, and @return 1 if any job or claim failed.
 */
int
runPaper(const std::string& selector, const Options& o)
{
    const bool all = selector == "all";
    const bool with_claims = all || selector == "claims";
    std::vector<const paper::Section*> chosen;
    std::string names;
    for (const paper::Section& s : paper::sections()) {
        if (all || s.name == selector)
            chosen.push_back(&s);
        names += s.name + ", ";
    }
    if (chosen.empty() && !with_claims)
        fatal("--paper: unknown section '", selector, "' (", names,
              "claims or all)");
    if (with_claims && o.cycles)
        fatal("--paper ", selector, ": the claims run at fixed "
              "cycle counts; name a section to set cycles");

    // One batch: every chosen section's jobs, then the claims'.
    ExperimentRunner::Options options;
    options.threads = o.workers;
    ExperimentRunner runner(options);
    std::vector<std::size_t> first;
    const auto cycles = [&](const paper::Section* s) {
        return o.cycles ? o.cycles : s->cycles;
    };
    for (const paper::Section* s : chosen) {
        first.push_back(runner.pending());
        for (ExperimentJob& j :
             paper::sectionJobs(*s, cycles(s), o.baseSeed))
            runner.add(std::move(j));
    }
    first.push_back(runner.pending());
    const paper::ClaimBatch claims;
    if (with_claims) {
        for (const ExperimentJob& j : claims.jobs())
            runner.add(j);
    }
    const std::vector<ExperimentOutcome> outcomes = runner.run();
    const std::span<const ExperimentOutcome> all_outcomes(outcomes);

    std::size_t failed_jobs = 0;
    for (const ExperimentOutcome& out : outcomes) {
        if (!out.ok) {
            ++failed_jobs;
            std::fprintf(stderr, "paper job %s/%s failed: %s\n",
                         out.tag.c_str(), out.benchmark.c_str(),
                         out.error.c_str());
        }
    }

    for (std::size_t i = 0; i < chosen.size(); ++i) {
        const auto slice =
            all_outcomes.subspan(first[i], first[i + 1] - first[i]);
        if (std::any_of(slice.begin(), slice.end(),
                        [](const ExperimentOutcome& out) {
                            return !out.ok;
                        })) {
            std::fprintf(stderr, "%s: not printed, a job failed\n",
                         chosen[i]->name.c_str());
            continue;
        }
        chosen[i]->render(paper::Results(slice));
        std::printf("(%zu runs of %llu cycles, base seed %llu)\n",
                    slice.size(),
                    static_cast<unsigned long long>(cycles(chosen[i])),
                    static_cast<unsigned long long>(o.baseSeed));
    }

    std::size_t failed_claims = 0;
    if (with_claims) {
        std::printf("\n== Claims: §4's results on shortened runs "
                    "==\n");
        const auto claim_outcomes = all_outcomes.subspan(first.back());
        for (std::size_t c = 0; c < paper::claims().size(); ++c) {
            const std::vector<paper::Check> checks =
                claims.evaluate(c, claim_outcomes);
            const bool holds =
                std::all_of(checks.begin(), checks.end(),
                            [](const paper::Check& k) {
                                return k.pass;
                            });
            failed_claims += holds ? 0 : 1;
            std::printf("%-6s %s\n", holds ? "holds" : "FAILS",
                        paper::claims()[c].name.c_str());
            for (const paper::Check& k : checks)
                std::printf("         %s\n",
                            paper::describe(k).c_str());
        }
        std::printf("%zu of %zu claims hold\n",
                    paper::claims().size() - failed_claims,
                    paper::claims().size());
    }
    if (failed_jobs)
        std::fprintf(stderr, "%zu of %zu paper jobs failed\n",
                     failed_jobs, outcomes.size());
    return failed_jobs || failed_claims ? 1 : 0;
}

/** Print the result table; @return (all ok, sweep hash). */
std::pair<bool, std::uint64_t>
report(const std::vector<ExperimentOutcome>& outcomes)
{
    bool all_ok = true;
    std::uint64_t sweep_hash = 0xcbf29ce484222325ULL;
    std::printf("%-20s %-8s %6s %7s %-8s %7s %8s %8s %8s %7s  %s\n",
                "config", "bench", "ipc", "stall%", "hot", "max_K",
                "toggles", "throttl", "cycles_M", "wall_s",
                "result_hash");
    for (const ExperimentOutcome& o : outcomes) {
        if (!o.ok) {
            std::printf("%-20s %-8s FAILED: %s\n", o.tag.c_str(),
                        o.benchmark.c_str(), o.error.c_str());
            all_ok = false;
            continue;
        }
        const SimResult& r = o.result;
        const BlockTempStats& hot = *std::max_element(
            r.blocks.begin(), r.blocks.end(),
            [](const BlockTempStats& a, const BlockTempStats& b) {
                return a.max < b.max;
            });
        const std::uint64_t h = experiments::hashSimResult(r);
        std::printf("%-20s %-8s %6.3f %6.1f%% %-8s %7.2f %8llu "
                    "%8llu %8.1f %7.2f  0x%016llx\n",
                    o.tag.c_str(), o.benchmark.c_str(), r.ipc,
                    100.0 * r.stallCycles / r.cycles,
                    hot.name.c_str(), hot.max,
                    static_cast<unsigned long long>(
                        r.dtm.iqToggles),
                    static_cast<unsigned long long>(
                        r.dtm.fetchThrottleEvents),
                    r.cycles / 1e6, o.wallSeconds,
                    static_cast<unsigned long long>(h));
        // Merge-order hash chain: any reordering, dropped shard,
        // or bit difference changes the final digest.
        sweep_hash = fnv1a64(&h, sizeof(h), sweep_hash);
    }
    return {all_ok, sweep_hash};
}

/**
 * The CMP/3D scaling matrix: core count x {flat, stacked DRAM},
 * mixed SPEC2000 benchmarks (one per core, memory-bound first so
 * the 3D rows heat), migration on for every multicore die.
 */
std::vector<CmpJob>
cmpScaleJobs(std::uint64_t cycles)
{
    const std::vector<std::string> mix = {"art", "mesa", "eon",
                                          "mcf"};
    std::vector<CmpJob> jobs;
    for (const int cores : {1, 2, 4}) {
        for (const bool dram : {false, true}) {
            CmpJob job;
            job.tag = std::to_string(cores) + "core" +
                      (dram ? "_3d" : "");
            job.config.base = experiments::iqBase();
            job.config.cores = cores;
            job.config.benchmarks.assign(
                mix.begin(), mix.begin() + cores);
            job.config.migration.enabled = cores > 1;
            job.config.stack.dram = dram;
            job.cycles = cycles;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

int
runCmpScale(std::uint64_t cycles, int threads)
{
    const std::vector<CmpJob> jobs = cmpScaleJobs(cycles);
    std::printf("cmp-scale sweep: %zu jobs (1/2/4 cores x "
                "flat/3d), %llu cycles per job, %d thread%s\n",
                jobs.size(),
                static_cast<unsigned long long>(cycles), threads,
                threads == 1 ? "" : "s");

    const auto start = std::chrono::steady_clock::now();
    const std::vector<CmpJobOutcome> outcomes =
        runCmpJobs(jobs, threads);
    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();

    std::uint64_t sweep_hash = 0xcbf29ce484222325ULL;
    std::printf("%-10s %6s %7s %7s %6s %8s %7s  %s\n", "job",
                "ipc", "max_K", "stalls", "migr", "cycles_M",
                "wall_s", "result_hash");
    for (const CmpJobOutcome& o : outcomes) {
        double ipc = 0.0;
        Kelvin max_t = 0.0;
        std::uint64_t stalls = 0;
        for (const SimResult& c : o.result.cores) {
            ipc += c.ipc;
            stalls += c.dtm.globalStalls;
            for (const BlockTempStats& b : c.blocks)
                max_t = std::max(max_t, b.max);
        }
        for (const BlockTempStats& b : o.result.shared)
            max_t = std::max(max_t, b.max);
        std::printf("%-10s %6.3f %7.2f %7llu %6llu %8.1f %7.2f  "
                    "0x%016llx\n",
                    o.tag.c_str(), ipc, max_t,
                    static_cast<unsigned long long>(stalls),
                    static_cast<unsigned long long>(
                        o.result.migration.migrations),
                    o.result.cycles / 1e6, o.wallSeconds,
                    static_cast<unsigned long long>(o.hash));
        sweep_hash =
            fnv1a64(&o.hash, sizeof(o.hash), sweep_hash);
    }
    std::printf("%zu jobs in %.1f s wall\n", outcomes.size(),
                wall);
    std::printf("sweep_hash 0x%016llx\n",
                static_cast<unsigned long long>(sweep_hash));
    return 0;
}

/**
 * The paper-scale sweep through the fabric (or, --in-process,
 * through runWarmForkSweep); `self` is this binary, exec'd as
 * the workers. @return 0 if every job succeeded.
 */
int
runPaperScale(const Options& o, const char* self)
{
    const std::uint64_t measure_cycles =
        o.cycles ? o.cycles : 100'000'000;
    const int workers = o.workers ? o.workers : 1;

    // The fabric ships warm snapshots by file path; give it a
    // private spill directory when the caller didn't.
    std::string spill_dir = o.spillDir;
    char made_dir[] = "/tmp/tempest_sweep_XXXXXX";
    bool own_spill = false;
    if (spill_dir.empty() && !o.inProcess) {
        if (!mkdtemp(made_dir))
            fatal("cannot create spill dir: errno ", errno);
        spill_dir = made_dir;
        own_spill = true;
    }

    fabric::SweepSpec spec;
    spec.configs = paperScaleConfigs();
    spec.benchmarks = {"art", "facerec", "mesa"};
    spec.measureCycles = measure_cycles;
    fabric::WarmSpec warm;
    // warmConfig left empty: the dotted-key default IS the
    // neutral iqBase() warm-up.
    warm.warmupCycles = measure_cycles / 10;

    const std::string pool =
        o.inProcess ? "in-process"
                    : std::to_string(workers) + " worker process(es)";
    std::printf("paper-scale sweep: %zu configs x %zu "
                "benchmarks, %llu warm-up + %llu measure "
                "cycles per job, %s\n",
                spec.configs.size(), spec.benchmarks.size(),
                static_cast<unsigned long long>(warm.warmupCycles),
                static_cast<unsigned long long>(measure_cycles),
                pool.c_str());

    // det:allow is a src/-only lint rule, but keep the idiom:
    // wall time here is reporting only.
    const auto start = std::chrono::steady_clock::now();
    std::vector<ExperimentOutcome> outcomes;
    if (o.inProcess) {
        std::vector<std::pair<std::string, SimConfig>> configs;
        configs.reserve(spec.configs.size());
        for (const auto& [tag, cfg] : spec.configs)
            configs.emplace_back(tag, simConfigFromConfig(cfg));
        experiments::WarmForkOptions wf;
        wf.warmConfig = simConfigFromConfig(warm.warmConfig);
        wf.warmupCycles = warm.warmupCycles;
        wf.warmTag = warm.warmTag;
        wf.spillDir = spill_dir;
        ExperimentRunner::Options options;
        options.threads = workers;
        options.baseSeed = o.baseSeed;
        outcomes = experiments::runWarmForkSweep(
            configs, spec.benchmarks, measure_cycles, wf, options);
    } else {
        fabric::FabricOptions options;
        options.workers = workers;
        options.baseSeed = o.baseSeed;
        options.spillDir = spill_dir;
        options.workerCommand = {self};
        options.jobTimeoutSeconds = o.jobTimeout;
        options.onEvent = [](const std::string& msg) {
            std::fprintf(stderr, "fabric: %s\n", msg.c_str());
        };
        fabric::FabricCoordinator coordinator(options);
        outcomes = coordinator.runWarmForkSweep(spec, warm);
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();

    const auto [all_ok, sweep_hash] = report(outcomes);
    std::printf("%zu jobs in %.1f s wall\n", outcomes.size(), wall);
    std::printf("sweep_hash 0x%016llx\n",
                static_cast<unsigned long long>(sweep_hash));

    if (own_spill) {
        for (const std::string& b : spec.benchmarks)
            ::unlink((spill_dir + "/warm_" + b + ".ckpt").c_str());
        ::rmdir(spill_dir.c_str());
    }
    return all_ok ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace tempest;

    if (argc < 2) {
        std::fprintf(
            stderr,
            "usage: tempest_sweep --paper <section|claims|all> "
            "[cycles] [--workers N] [--base-seed S]\n"
            "       tempest_sweep --paper-scale [measure_cycles] "
            "[--workers N] [--base-seed S] [--spill-dir DIR] "
            "[--job-timeout SECONDS] [--in-process]\n"
            "       tempest_sweep --cmp-scale [cycles] "
            "[--workers N]\n"
            "       tempest_sweep --worker-fd N\n");
        return 2;
    }

    const char* mode = argv[1];
    if (std::strcmp(mode, "--worker-fd") == 0) {
        if (argc < 3) {
            std::fprintf(stderr,
                         "--worker-fd needs a descriptor\n");
            return 2;
        }
        const int fd = std::atoi(argv[2]);
        if (fd < 0) {
            std::fprintf(stderr, "bad worker fd '%s'\n", argv[2]);
            return 2;
        }
        return fabric::workerMain(fd);
    }

    try {
        if (std::strcmp(mode, "--paper") == 0) {
            if (argc < 3)
                fatal("--paper needs a section, claims or all");
            return runPaper(argv[2],
                            parseOptions(argc, argv, 3, mode));
        }
        if (std::strcmp(mode, "--cmp-scale") == 0) {
            const Options o = parseOptions(argc, argv, 2, mode);
            return runCmpScale(o.cycles ? o.cycles : 10'000'000,
                               o.workers ? o.workers : 1);
        }
        if (std::strcmp(mode, "--paper-scale") == 0)
            return runPaperScale(parseOptions(argc, argv, 2, mode),
                                 argv[0]);
    } catch (const tempest::FatalError&) {
        return 1;
    }
    std::fprintf(stderr, "unknown mode '%s'\n", mode);
    return 2;
}
