/**
 * @file
 * Sweeps: the paper's evaluation, and the two scaling sweeps on
 * threads or worker processes (DESIGN.md §8, §15, §16).
 *
 *   tempest_sweep --paper <section|claims|all> [cycles]
 *                 [--workers N] [--base-seed S]
 *   tempest_sweep --paper-scale [measure_cycles]
 *                 [--workers N] [--in-process]
 *                 [--job-timeout SECONDS]
 *                 [--base-seed S] [--spill-dir DIR]
 *   tempest_sweep --cmp-scale [cycles] [--workers N]
 *                 [--in-process] [--job-timeout SECONDS]
 *   tempest_sweep --worker-fd N       (internal: worker mode)
 *
 * --paper runs sections and claims of the paper registry
 * (src/sim/paper.hh) as one job list on the thread backend and
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
 * --paper-scale runs the paper-scale DTM sweep: four IQ-floorplan
 * DTM variants x three benchmarks, each benchmark warmed once for
 * measure_cycles/10 cycles into a snapshot under --spill-dir (a
 * private temporary directory by default) and every variant
 * forked from it. --cmp-scale runs the CMP/3D scaling matrix:
 * 1-, 2- and 4-core dies, flat and with a stacked DRAM layer,
 * cross-core migration on for every multicore job.
 *
 * Both scaling sweeps run on --workers N (default 1) worker
 * *processes* through src/sim/fabric — exec'd copies of this
 * binary in --worker-fd mode, so the sweep exercises the exact
 * process topology CI uses — or, with --in-process, on N threads.
 * --job-timeout kills and re-queues a worker whose job runs
 * longer (processes only). Each prints one row per job ending in
 * its result_hash (hashSimResult of the single core for
 * --paper-scale, hashCmpResult for --cmp-scale), plus a final
 * `sweep_hash` (FNV-1a over the per-job hashes in merge order).
 * Both backends run the same job list through the same job
 * function, so the sweep_hash lines match at any worker count,
 * on either backend, and across any failure/recovery history.
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/log.hh"
#include "sim/checkpoint/stateio.hh"
#include "sim/experiment.hh"
#include "sim/fabric/coordinator.hh"
#include "sim/fabric/worker.hh"
#include "sim/paper.hh"
#include "sim/runner.hh"

namespace
{

using namespace tempest;

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
 * Parse argv[first..] for `mode`. Every mode takes --workers;
 * --paper and --paper-scale take --base-seed; the scaling sweeps
 * take --in-process and --job-timeout; --spill-dir is
 * --paper-scale's alone. Any other flag is an error naming the
 * mode, and anything else is the positional cycle count.
 */
Options
parseOptions(int argc, char** argv, int first, const std::string& mode)
{
    const bool scale = mode != "--paper";
    const bool paper_scale = mode == "--paper-scale";
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
        } else if (arg == "--base-seed" && (!scale || paper_scale)) {
            const char* text = value();
            if (!wholeNumber(text, o.baseSeed))
                fatal("--base-seed: '", text,
                      "' is not a non-negative integer");
        } else if (arg == "--spill-dir" && paper_scale) {
            o.spillDir = value();
        } else if (arg == "--job-timeout" && scale) {
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
        } else if (arg == "--in-process" && scale) {
            o.inProcess = true;
        } else if (arg.rfind("--", 0) == 0) {
            fatal(mode, " does not take ", arg);
        } else {
            o.cycles = parseCycles(argv[i], mode.c_str());
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

    // One job list: every chosen section's jobs, then the
    // claims'.
    std::vector<Job> jobs;
    std::vector<std::size_t> first;
    const auto cycles = [&](const paper::Section* s) {
        return o.cycles ? o.cycles : s->cycles;
    };
    for (const paper::Section* s : chosen) {
        first.push_back(jobs.size());
        for (Job& j : paper::sectionJobs(*s, cycles(s), o.baseSeed))
            jobs.push_back(std::move(j));
    }
    first.push_back(jobs.size());
    const paper::ClaimBatch claims;
    if (with_claims)
        jobs.insert(jobs.end(), claims.jobs().begin(),
                    claims.jobs().end());
    const std::vector<Outcome> outcomes = runJobs(jobs, o.workers);
    const std::span<const Outcome> all_outcomes(outcomes);

    std::size_t failed_jobs = 0;
    for (const Outcome& out : outcomes) {
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
                        [](const Outcome& out) {
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

/** Print a --paper-scale row; @return its result hash. */
std::uint64_t
printScaleRow(const Outcome& o)
{
    const SimResult& r = o.result.cores.front();
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
                static_cast<unsigned long long>(r.dtm.iqToggles),
                static_cast<unsigned long long>(
                    r.dtm.fetchThrottleEvents),
                r.cycles / 1e6, o.wallSeconds,
                static_cast<unsigned long long>(h));
    return h;
}

/** Print a --cmp-scale row; @return its result hash. */
std::uint64_t
printCmpRow(const Outcome& o)
{
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
    const std::uint64_t h = hashCmpResult(o.result);
    std::printf("%-10s %6.3f %7.2f %7llu %6llu %8.1f %7.2f  "
                "0x%016llx\n",
                o.tag.c_str(), ipc, max_t,
                static_cast<unsigned long long>(stalls),
                static_cast<unsigned long long>(
                    o.result.migration.migrations),
                o.result.cycles / 1e6, o.wallSeconds,
                static_cast<unsigned long long>(h));
    return h;
}

/**
 * --paper-scale or --cmp-scale (`mode`) on the backend `o` picks;
 * `self` is this binary, exec'd as the workers. Prints one row
 * per job (warm-ups aside) and the sweep_hash. @return 0 if every
 * job succeeded.
 */
int
runScale(const std::string& mode, const Options& o, const char* self)
{
    const bool cmp = mode == "--cmp-scale";
    const int workers = o.workers ? o.workers : 1;
    const std::string pool =
        std::to_string(workers) +
        (o.inProcess ? " thread(s)" : " worker process(es)");

    std::optional<experiments::SpillDir> own_spill;
    std::vector<Job> jobs;
    if (cmp) {
        const std::uint64_t cycles = o.cycles ? o.cycles : 10'000'000;
        jobs = paper::cmpScaleJobs(cycles);
        std::printf("cmp-scale sweep: %zu jobs (1/2/4 cores x "
                    "flat/3d), %llu cycles per job, %s\n",
                    jobs.size(),
                    static_cast<unsigned long long>(cycles),
                    pool.c_str());
    } else {
        const std::uint64_t measure =
            o.cycles ? o.cycles : 100'000'000;
        const auto configs = paper::scaleConfigs();
        const std::vector<std::string> benchmarks = {"art", "facerec",
                                                     "mesa"};
        const std::string spill_dir =
            o.spillDir.empty() ? own_spill.emplace().path()
                               : o.spillDir;
        // The neutral warm-up is iqBase(): every variant with its
        // techniques off.
        jobs = experiments::warmForkJobs(
            configs, benchmarks, experiments::iqBase(),
            measure / 10, measure, o.baseSeed, spill_dir);
        std::printf("paper-scale sweep: %zu configs x %zu "
                    "benchmarks, %llu warm-up + %llu measure "
                    "cycles per job, %s\n",
                    configs.size(), benchmarks.size(),
                    static_cast<unsigned long long>(measure / 10),
                    static_cast<unsigned long long>(measure),
                    pool.c_str());
    }

    fabric::FabricOptions options;
    options.workers = workers;
    options.workerCommand = {self};
    options.jobTimeoutSeconds = o.jobTimeout;
    options.onEvent = [](const std::string& msg) {
        std::fprintf(stderr, "fabric: %s\n", msg.c_str());
    };
    fabric::FabricCoordinator coordinator(options);
    const Backend backend = [&](const std::vector<Job>& batch) {
        return o.inProcess ? runJobs(batch, workers)
                           : coordinator.runJobs(batch);
    };

    // Wall time here is reporting only.
    const auto start = std::chrono::steady_clock::now();
    const std::vector<Outcome> outcomes =
        experiments::runWarmFork(jobs, backend);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();

    if (cmp) {
        std::printf("%-10s %6s %7s %7s %6s %8s %7s  %s\n", "job",
                    "ipc", "max_K", "stalls", "migr", "cycles_M",
                    "wall_s", "result_hash");
    } else {
        std::printf("%-20s %-8s %6s %7s %-8s %7s %8s %8s %8s %7s  "
                    "%s\n",
                    "config", "bench", "ipc", "stall%", "hot",
                    "max_K", "toggles", "throttl", "cycles_M",
                    "wall_s", "result_hash");
    }
    bool all_ok = true;
    std::size_t rows = 0;
    std::uint64_t sweep_hash = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (jobs[i].warm)
            continue;
        ++rows;
        const Outcome& out = outcomes[i];
        if (!out.ok) {
            std::printf("%-20s %-8s FAILED: %s\n", out.tag.c_str(),
                        out.benchmark.c_str(), out.error.c_str());
            all_ok = false;
            continue;
        }
        const std::uint64_t h =
            cmp ? printCmpRow(out) : printScaleRow(out);
        // Merge-order hash chain: any reordering, dropped shard,
        // or bit difference changes the final digest.
        sweep_hash = fnv1a64(&h, sizeof(h), sweep_hash);
    }
    std::printf("%zu jobs in %.1f s wall\n", rows, wall);
    std::printf("sweep_hash 0x%016llx\n",
                static_cast<unsigned long long>(sweep_hash));
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
            "[--workers N] [--in-process] [--job-timeout SECONDS] "
            "[--base-seed S] [--spill-dir DIR]\n"
            "       tempest_sweep --cmp-scale [cycles] "
            "[--workers N] [--in-process] [--job-timeout SECONDS]\n"
            "       tempest_sweep --worker-fd N\n");
        return 2;
    }

    const std::string mode = argv[1];
    if (mode == "--worker-fd") {
        std::uint64_t fd = 0;
        if (argc < 3 || !wholeNumber(argv[2], fd) || fd > INT_MAX) {
            std::fprintf(stderr,
                         "--worker-fd: '%s' is not a descriptor\n",
                         argc < 3 ? "" : argv[2]);
            return 2;
        }
        return fabric::workerMain(static_cast<int>(fd));
    }

    try {
        if (mode == "--paper") {
            if (argc < 3)
                fatal("--paper needs a section, claims or all");
            return runPaper(argv[2],
                            parseOptions(argc, argv, 3, mode));
        }
        if (mode == "--paper-scale" || mode == "--cmp-scale")
            return runScale(mode, parseOptions(argc, argv, 2, mode),
                            argv[0]);
    } catch (const tempest::FatalError&) {
        return 1;
    }
    std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
    return 2;
}
