/**
 * @file
 * tempest_run: configuration-file-driven simulation driver.
 *
 * Usage:
 *   tempest_run <config.ini> [key=value ...]
 *   tempest_run <config.ini> --cores N [key=value ...]
 *
 * Any "key = value" override on the command line wins over the
 * file. See configs/ for annotated examples. Recognized keys:
 *
 *   [run]      benchmark, cycles, seed, trace_csv, trace_stride
 *   [floorplan] variant = baseline|iq|alu|regfile
 *   [dtm]      toggling, alu_turnoff, regfile_turnoff,
 *              round_robin, fetch_throttling,
 *              mapping = priority|balanced|completely-balanced,
 *              max_temperature, toggle_delta, cooling_time
 *   [thermal]  time_scale, ambient, convection,
 *              max_cached_propagators, r_stack_bond,
 *              stacked_die_thickness
 *   [sim]      sample_interval, warm_start
 *   [cmp]      cores, l2, benchmarks,
 *              migration.{enabled,margin,min_gap,
 *              cooldown_intervals,stall_cycles,bytes_per_cycle}
 *   [stack]    dram, dram_energy_per_access, dram_static_w
 *
 * Any other key is fatal, naming it (exit 1).
 *
 * `--cores N` is sugar for the `cmp.cores = N` override. Every
 * run goes through the one engine (CmpSimulator): N cores in
 * lockstep on one shared thermal network, per-core DTM plus the
 * cross-core migration policy. A 1-core run without stacked DRAM
 * is the single-core simulation and prints its report; more cores
 * or a stacked DRAM die print one result block per core. --cores 1
 * and no flag print the same result_hash.
 *
 * Checkpointing (resumable runs, see DESIGN.md §11):
 *
 *   --checkpoint-every N   snapshot every N cycles
 *   --checkpoint-dir D     directory for <benchmark>.ckpt, or
 *                          cmp.ckpt for multi-core and stacked
 *                          runs (default ".")
 *   --resume               restore from the checkpoint file if it
 *                          exists, then continue to [run] cycles
 *
 * Checkpoint files are written atomically (tmp + rename), so a
 * kill at any instant leaves either the previous snapshot or the
 * new one, never a torn file. A resumed run is bit-identical to
 * an uninterrupted one; the printed result_hash proves it.
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "common/config.hh"
#include "common/log.hh"
#include "sim/checkpoint/checkpoint.hh"
#include "sim/cmp/cmp_simulator.hh"
#include "sim/experiment.hh"
#include "sim/sim_config_io.hh"
#include "sim/trace.hh"

using namespace tempest;

namespace
{

/** The single-core report: totals, DTM events, block temps. */
void
printSimReport(const SimResult& r)
{
    std::printf("benchmark    %s\n", r.benchmark.c_str());
    std::printf("cycles       %llu\n",
                static_cast<unsigned long long>(r.cycles));
    std::printf("instructions %llu\n",
                static_cast<unsigned long long>(r.instructions));
    std::printf("ipc          %.3f\n", r.ipc);
    std::printf("stall_cycles %llu (%.1f%%)\n",
                static_cast<unsigned long long>(r.stallCycles),
                100.0 * r.stallCycles / r.cycles);
    std::printf("stalls       %llu\n",
                static_cast<unsigned long long>(r.dtm.globalStalls));
    std::printf("toggles      %llu\n",
                static_cast<unsigned long long>(r.dtm.iqToggles));
    std::printf("turnoffs     %llu alu, %llu fp, %llu "
                "regfile, %llu fetch-throttle\n",
                static_cast<unsigned long long>(
                    r.dtm.aluTurnoffEvents),
                static_cast<unsigned long long>(
                    r.dtm.fpAdderTurnoffEvents),
                static_cast<unsigned long long>(
                    r.dtm.regfileTurnoffEvents),
                static_cast<unsigned long long>(
                    r.dtm.fetchThrottleEvents));
    for (const BlockTempStats& b : r.blocks) {
        std::printf("block %-10s avg %7.2f K   max %7.2f K\n",
                    b.name.c_str(), b.avg, b.max);
    }
    // Full-SimResult FNV-1a: bit-identity fingerprint for the
    // kill-and-resume test and for cross-run comparisons.
    std::printf("result_hash  0x%016llx\n",
                static_cast<unsigned long long>(
                    experiments::hashSimResult(r)));
}

/** The CMP report: one row per core, shared blocks, migration. */
void
printCmpReport(const CmpSimConfig& config, const CmpResult& r)
{
    std::printf("cores        %d\n", config.cores);
    std::printf("cycles       %llu\n",
                static_cast<unsigned long long>(r.cycles));
    std::printf("%-5s %-8s %4s %6s %7s %-10s %7s %7s\n", "core",
                "bench", "tile", "ipc", "stall%", "hot", "max_K",
                "stalls");
    for (std::size_t j = 0; j < r.cores.size(); ++j) {
        const SimResult& c = r.cores[j];
        const BlockTempStats& hot = *std::max_element(
            c.blocks.begin(), c.blocks.end(),
            [](const BlockTempStats& a, const BlockTempStats& b) {
                return a.max < b.max;
            });
        std::printf("%-5zu %-8s %4d %6.3f %6.1f%% %-10s %7.2f "
                    "%7llu\n",
                    j, c.benchmark.c_str(), r.tileOfJob[j], c.ipc,
                    100.0 * c.stallCycles / c.cycles,
                    hot.name.c_str(), hot.max,
                    static_cast<unsigned long long>(
                        c.dtm.globalStalls));
    }
    for (const BlockTempStats& b : r.shared) {
        std::printf("shared %-10s avg %7.2f K   max %7.2f K\n",
                    b.name.c_str(), b.avg, b.max);
    }
    std::printf("migrations   %llu (%llu stall cycles, %llu "
                "bytes moved, %llu evaluations)\n",
                static_cast<unsigned long long>(
                    r.migration.migrations),
                static_cast<unsigned long long>(
                    r.migration.migrationStallCycles),
                static_cast<unsigned long long>(
                    r.migration.bytesMoved),
                static_cast<unsigned long long>(
                    r.migration.evaluations));
    std::printf("result_hash  0x%016llx\n",
                static_cast<unsigned long long>(hashCmpResult(r)));
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: tempest_run <config.ini> "
                     "[--cores N] [key=value ...]\n");
        return 2;
    }

    try {
        std::uint64_t checkpoint_every = 0;
        std::string checkpoint_dir = ".";
        bool resume = false;

        Config cfg;
        {
            std::ifstream in(argv[1]);
            if (!in)
                fatal("cannot open config '", argv[1], "'");
            std::stringstream ss;
            ss << in.rdbuf();
            cfg.parseText(ss.str());
        }
        for (int i = 2; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--checkpoint-every") {
                if (++i >= argc)
                    fatal("--checkpoint-every needs a cycle count");
                char* end = nullptr;
                errno = 0;
                checkpoint_every = std::strtoull(argv[i], &end, 10);
                if (end == argv[i] || *end != '\0' ||
                    errno == ERANGE || argv[i][0] == '-') {
                    fatal("--checkpoint-every: '", argv[i],
                          "' is not a valid cycle count");
                }
                if (checkpoint_every == 0)
                    fatal("--checkpoint-every must be > 0");
            } else if (arg == "--checkpoint-dir") {
                if (++i >= argc)
                    fatal("--checkpoint-dir needs a directory");
                checkpoint_dir = argv[i];
            } else if (arg == "--resume") {
                resume = true;
            } else if (arg == "--cores") {
                if (++i >= argc)
                    fatal("--cores needs a count");
                // Sugar for the dotted override; range-checked by
                // cmpConfigFromConfig like any cmp.cores value.
                cfg.parseText(std::string("cmp.cores = ") +
                              argv[i]);
            } else {
                cfg.parseText(arg);
            }
        }

        // getInt is signed: a negative run.cycles cast straight to
        // uint64_t would wrap to ~1.8e19 and run "forever".
        const std::int64_t cycles_signed =
            cfg.getInt("run.cycles", 12'000'000);
        if (cycles_signed <= 0) {
            fatal("run.cycles must be > 0 (got ", cycles_signed,
                  ")");
        }
        const auto cycles =
            static_cast<std::uint64_t>(cycles_signed);

        const CmpSimConfig config = cmpConfigFromConfig(
            cfg, {"run.cycles", "run.trace_csv", "run.trace_stride"});
        CmpSimulator sim(config);
        // One core without a stacked DRAM die is the single-core
        // simulation: its report, result_hash and checkpoint name.
        const bool single = config.cores == 1 && !config.stack.dram;
        const std::string ckpt_path =
            checkpoint_dir + "/" +
            (single ? sim.config().benchmarks.front() : "cmp") +
            ".ckpt";

        const std::int64_t trace_stride =
            cfg.getInt("run.trace_stride", 1);
        if (trace_stride < 1 ||
            trace_stride > std::numeric_limits<int>::max()) {
            fatal("run.trace_stride must be in [1, ",
                  std::numeric_limits<int>::max(), "] (got ",
                  trace_stride, ")");
        }
        ThermalTrace trace(sim.floorplan(),
                           static_cast<int>(trace_stride));
        const std::string trace_path =
            cfg.getString("run.trace_csv", "");
        if (!trace_path.empty())
            sim.setTrace(&trace);

        if (resume) {
            std::ifstream probe(ckpt_path, std::ios::binary);
            if (probe) {
                probe.close();
                sim.restoreCheckpoint(
                    readCheckpointFile(ckpt_path));
                std::printf("resumed       %s @ cycle %llu\n",
                            ckpt_path.c_str(),
                            static_cast<unsigned long long>(
                                sim.cycle()));
            } else {
                inform("--resume: no checkpoint at '", ckpt_path,
                       "', starting from cycle 0");
            }
        }

        if (checkpoint_every > 0) {
            while (sim.cycle() < cycles) {
                const std::uint64_t stop = std::min(
                    cycles, sim.cycle() + checkpoint_every);
                sim.runTo(stop);
                writeCheckpointFile(ckpt_path,
                                    sim.saveCheckpoint());
            }
        } else {
            sim.runTo(cycles);
        }
        const CmpResult r = sim.result();

        if (single)
            printSimReport(r.cores.front());
        else
            printCmpReport(config, r);
        if (!trace_path.empty()) {
            trace.writeCsv(trace_path);
            std::printf("trace        %zu samples -> %s\n",
                        trace.size(), trace_path.c_str());
        }
    } catch (const tempest::FatalError&) {
        return 1;
    }
    return 0;
}
