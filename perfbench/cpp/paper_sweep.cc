/**
 * @file
 * paper_sweep: the paper's Table 4-6 configurations as a serial
 * warm-fork sweep (one neutral warm-up per floorplan and benchmark
 * through experiments::warmSnapshot, then every configuration forks
 * from it through experiments::runFromSnapshot).
 *
 * The traced run repeats the sweep with the closed loop driven from
 * here through public calls, in Simulator::runInterval's order, so
 * each layer can be timed from outside; every traced fork must hash
 * bit-identically to its untraced twin.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "report.hh"
#include "sim/checkpoint/stateio.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

namespace perfbench
{

namespace
{

using namespace tempest;

// Warm-up and fork lengths: eon's ALU and regfile turnoffs need
// about 3.5M cycles in all before they fire. The warm-up stays
// short: after a 2.5M-cycle warm-up, 4 seeds in 10 started their
// forks hot enough for extra global stalls, each adding 1.68M
// stalled cycles to a 1M-cycle fork (sim_ipc 1.09 against 1.50).
constexpr std::uint64_t kWarmupCycles = 1'000'000;
constexpr std::uint64_t kForkCycles = 2'500'000;
constexpr int kSetupReps = 3;

// eon (high ILP, thermally constrained, fires every DTM mechanism)
// and art (memory bound, never overheats) are the two ends of the
// paper's benchmark classes.
const std::vector<std::string> kBenchmarks = {"eon", "art"};

struct Group
{
    std::string name;
    SimConfig warm; ///< neutral: every technique off
    std::vector<std::pair<std::string, SimConfig>> configs;
};

std::vector<Group>
paperGroups()
{
    SimConfig throttled = experiments::iqToggling();
    throttled.dtm.fetchThrottling = true;
    return {
        {"iq",
         experiments::iqBase(),
         {{"iq_base", experiments::iqBase()},
          {"iq_toggling", throttled}}},
        {"alu",
         experiments::aluBase(),
         {{"alu_fine_grain", experiments::aluFineGrain()},
          {"alu_round_robin", experiments::aluRoundRobin()}}},
        {"regfile",
         experiments::regfileConfig(PortMapping::Priority, false),
         {{"regfile_priority",
           experiments::regfileConfig(PortMapping::Priority, true)},
          {"regfile_balanced",
           experiments::regfileConfig(PortMapping::Balanced, true)}}},
    };
}

struct Snapshot
{
    std::string benchmark;
    SimConfig warm;
    std::uint64_t seed = 0;
    std::string bytes;
};

struct Fork
{
    std::string tag;
    std::string benchmark;
    SimConfig config;
    std::size_t snapshot = 0;
};

struct Round
{
    double wall = 0;
    std::vector<double> opWalls; ///< per fork
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t failed = 0;
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    std::vector<std::uint64_t> hashes;
    DtmStats dtm;
};

void
addResult(Round& round, const SimResult& r)
{
    const std::uint64_t h = experiments::hashSimResult(r);
    round.hashes.push_back(h);
    round.digest = fnv1a64(&h, sizeof(h), round.digest);
    round.instructions += r.instructions;
    round.cycles += r.cycles;
    addDtm(round.dtm, r.dtm);
}

void
addFailure(Round& round, const Fork& f, const char* what)
{
    std::fprintf(stderr, "fork %s/%s failed: %s\n", f.tag.c_str(),
                 f.benchmark.c_str(), what);
    ++round.failed;
    round.hashes.push_back(0);
    const std::uint64_t h = 0;
    round.digest = fnv1a64(&h, sizeof(h), round.digest);
}

/**
 * One untraced pass over every fork (the measured region). Fork i
 * of round k runs on usable CPU i + k, so each fork's repeats land
 * on different CPUs.
 */
Round
untracedRound(const std::vector<Fork>& forks,
              const std::vector<Snapshot>& snaps, std::size_t k)
{
    Round round;
    const double t0 = now();
    for (std::size_t i = 0; i < forks.size(); ++i) {
        const Fork& f = forks[i];
        const Snapshot& s = snaps[f.snapshot];
        rotateCpu(i + k);
        const double f0 = now();
        try {
            addResult(round, experiments::runFromSnapshot(
                                 f.config, f.benchmark, s.seed,
                                 s.bytes, kForkCycles));
        } catch (const std::exception& e) {
            addFailure(round, f, e.what());
        }
        round.opWalls.push_back(now() - f0);
    }
    round.wall = now() - t0;
    return round;
}

/**
 * Simulator::runInterval re-enacted through public calls: the core
 * from sim.core(), the RC network and DTM from the simulator, plus
 * a PowerModel and SensorBank of our own (the paper configurations
 * use ideal sensors, whose reads draw no random numbers).
 */
class TracedLoop
{
  public:
    TracedLoop(Simulator& sim, SpanLog& log, std::uint64_t id,
               int parent)
        : sim_(sim), cfg_(sim.config()), log_(log), id_(id),
          parent_(parent),
          power_(cfg_.energy, sim.floorplan(), cfg_.pipeline,
                 cfg_.pipeline.frequencyHz),
          sensors_(sim.thermalModel(), cfg_.sensorQuantum, 0.0,
                   cfg_.runSeed ^ 0x5e),
          accum_(static_cast<std::size_t>(sim.floorplan().numBlocks())),
          temps_(accum_.size()),
          startCycle_(sim.core().cycle()),
          startCommitted_(sim.core().committed())
    {}

    void
    run(std::uint64_t cycles)
    {
        const std::uint64_t end = sim_.core().cycle() + cycles;
        while (sim_.core().cycle() < end)
            interval(false, cfg_.sampleIntervalCycles);
    }

    /** Simulator::result() over the loop's own accumulators. */
    SimResult
    result() const
    {
        const OooCore& core = sim_.core();
        SimResult r;
        r.benchmark = core.profile().name;
        r.cycles = core.cycle() - startCycle_;
        r.instructions = core.committed() - startCommitted_;
        r.ipc = r.cycles ? static_cast<double>(r.instructions) /
                               static_cast<double>(r.cycles)
                         : 0.0;
        r.stallCycles = total_.stallCycles;
        r.dtm = sim_.dtm().stats();
        r.activity = total_;
        r.blocks.resize(accum_.size());
        for (std::size_t b = 0; b < accum_.size(); ++b) {
            r.blocks[b].name =
                sim_.floorplan().block(static_cast<int>(b)).name;
            r.blocks[b].avg = accum_[b].avg.mean();
            r.blocks[b].max = accum_[b].maxT;
        }
        return r;
    }

    std::uint64_t ticked = 0;
    std::uint64_t stalled = 0;

  private:
    struct Accum
    {
        RunningStat avg;
        Kelvin maxT = 0.0;
    };

    void
    interval(bool stalled, std::uint64_t cycles)
    {
        OooCore& core = sim_.core();
        RcModel& rc = sim_.thermalModel();
        ActivityRecord activity;
        if (stalled) {
            Scope s(&log_, "uarch.stall", id_, parent_);
            core.stallCycles(cycles, activity);
            this->stalled += cycles;
        } else {
            Scope s(&log_, "uarch.tick", id_, parent_);
            for (std::uint64_t c = 0; c < cycles; ++c)
                core.tick(activity);
            ticked += cycles;
        }
        {
            Scope s(&log_, "power", id_, parent_);
            power_.blockPowers(activity, powers_);
        }
        {
            Scope s(&log_, "thermal", id_, parent_);
            rc.setPowers(powers_);
            rc.step(static_cast<double>(activity.cycles) /
                    cfg_.pipeline.frequencyHz);
        }
        total_.add(activity);

        Kelvin hottest = 0;
        {
            Scope s(&log_, "sensor", id_, parent_);
            for (std::size_t b = 0; b < accum_.size(); ++b) {
                const Kelvin t = sensors_.read(static_cast<int>(b));
                temps_[b] = t;
                if (!stalled)
                    accum_[b].avg.sample(t);
                accum_[b].maxT = std::max(accum_[b].maxT, t);
                hottest = std::max(hottest, t);
            }
        }
        bool global_stall = false;
        if (!stalled) {
            Scope s(&log_, "dtm", id_, parent_);
            global_stall = sim_.dtm().sample(temps_, hottest) ==
                           DtmAction::GlobalStall;
        }
        if (global_stall) {
            const Seconds cooling =
                cfg_.dtm.coolingTime * cfg_.thermal.timeScale;
            const auto cooling_cycles = static_cast<std::uint64_t>(
                cooling * cfg_.pipeline.frequencyHz);
            std::uint64_t done = 0;
            while (done < cooling_cycles) {
                const std::uint64_t n =
                    std::min(cooling_cycles - done,
                             cfg_.sampleIntervalCycles);
                interval(true, n);
                done += n;
            }
        }
    }

    Simulator& sim_;
    const SimConfig& cfg_;
    SpanLog& log_;
    std::uint64_t id_;
    int parent_;
    PowerModel power_;
    SensorBank sensors_;
    std::vector<Accum> accum_;
    std::vector<Kelvin> temps_;
    std::vector<Watt> powers_;
    ActivityRecord total_;
    std::uint64_t startCycle_;
    std::uint64_t startCommitted_;
};

struct TracedTotals
{
    std::uint64_t ticked = 0;
    std::uint64_t stalled = 0;
    std::uint64_t ops = 0;
    double opSeconds = 0;
    std::uint64_t checksum = 0; ///< keeps the stream loop live
    int nodes = 0;
    int propagators = 0;
};

/** A fork as runFromSnapshot makes it, with the loop traced. */
SimResult
tracedFork(const Fork& f, const Snapshot& s, std::uint64_t id,
           SpanLog& log, TracedTotals& totals)
{
    const int fork = log.begin("fork", id);
    SimConfig config = f.config;
    config.runSeed = s.seed;
    std::unique_ptr<Simulator> sim;
    {
        Scope span(&log, "sim.construct", id, fork);
        sim = std::make_unique<Simulator>(config,
                                          spec2000(f.benchmark));
    }
    {
        Scope span(&log, "checkpoint.restore", id, fork);
        sim->restoreCheckpoint(s.bytes);
    }
    sim->resetMeasurement();
    const std::uint64_t ops0 = sim->core().stream().generated();
    const int loop_span = log.begin("loop", id, fork);
    TracedLoop loop(*sim, log, id, loop_span);
    loop.run(kForkCycles);
    log.end(loop_span);
    log.end(fork);
    totals.ticked += loop.ticked;
    totals.stalled += loop.stalled;

    // workload layer: the same number of ops from a standalone
    // stream with this fork's profile and seed.
    const std::uint64_t ops =
        sim->core().stream().generated() - ops0;
    InstructionStream stream(spec2000(f.benchmark), s.seed);
    const double t0 = now();
    for (std::uint64_t i = 0; i < ops; ++i)
        totals.checksum += stream.next().lineAddr;
    totals.opSeconds += now() - t0;
    totals.ops += ops;
    const ExpmSolver& expm = sim->thermalModel().expmSolver();
    totals.nodes = expm.numNodes();
    totals.propagators =
        std::max(totals.propagators, expm.cachedPropagators());
    return loop.result();
}

} // namespace

int
runPaperSweep(const Args& args)
{
    // One snapshot per floorplan group and benchmark; each of the
    // group's configurations forks from it.
    std::vector<Snapshot> snaps;
    std::vector<Fork> forks;
    for (const Group& g : paperGroups()) {
        const std::size_t first = snaps.size();
        for (const std::string& bench : kBenchmarks) {
            snaps.push_back(Snapshot{
                bench, g.warm,
                deriveRunSeed(args.seed, bench, "warmup-" + g.name), ""});
        }
        for (const auto& [tag, config] : g.configs) {
            for (std::size_t b = 0; b < kBenchmarks.size(); ++b)
                forks.push_back(Fork{tag, kBenchmarks[b], config, first + b});
        }
    }

    // Set-up: every warm snapshot, several times; the bytes must
    // repeat exactly.
    std::vector<double> setup;
    bool setup_ok = true;
    SpanLog log;
    SpanLog* tlog = args.trace ? &log : nullptr;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        rotateCpu(static_cast<std::size_t>(rep));
        const double t0 = now();
        for (Snapshot& s : snaps) {
            std::string bytes = experiments::warmSnapshot(
                s.warm, s.benchmark, s.seed, kWarmupCycles);
            if (rep == 0)
                s.bytes = std::move(bytes);
            else if (bytes != s.bytes)
                setup_ok = false;
        }
        setup.push_back(now() - t0);
    }
    std::uint64_t snapshot_bytes = 0;
    for (const Snapshot& s : snaps)
        snapshot_bytes += s.bytes.size();

    // Traced set-up: warmSnapshot's steps with spans around
    // construction and saveCheckpoint.
    if (tlog) {
        for (std::size_t i = 0; i < snaps.size(); ++i) {
            const Snapshot& s = snaps[i];
            const int parent = log.begin("setup", i);
            SimConfig config = s.warm;
            config.runSeed = s.seed;
            std::unique_ptr<Simulator> sim;
            {
                Scope span(tlog, "sim.construct", i, parent);
                sim = std::make_unique<Simulator>(
                    config, spec2000(s.benchmark));
            }
            {
                Scope span(tlog, "sim.warmup", i, parent);
                sim->runTo(kWarmupCycles);
            }
            std::string bytes;
            {
                Scope span(tlog, "checkpoint.save", i, parent);
                bytes = sim->saveCheckpoint();
            }
            log.end(parent);
            if (bytes != s.bytes)
                setup_ok = false;
        }
    }

    // Traced runs need one untraced round, the reference.
    const std::vector<Round> rounds =
        repeatRounds(args.trace ? 0.0 : args.seconds, [&](std::size_t k) {
            return untracedRound(forks, snaps, k);
        });

    JsonOut out;
    out.str("workload", "paper_sweep")
        .nums("setup_s", setup)
        .boolean("setup_ok", setup_ok)
        .num("snapshot_bytes",
             static_cast<double>(snapshot_bytes) / snaps.size())
        .num("region_cycles", rounds.front().cycles)
        .num("region_instructions", rounds.front().instructions);

    const Round& first = rounds.front();
    out.raw("rounds", roundsJson(rounds))
        .raw("dtm", dtmJson(first.dtm).done());

    if (tlog) {
        Round traced;
        TracedTotals totals;
        std::uint64_t mismatches = 0;
        const double t0 = now();
        for (std::size_t i = 0; i < forks.size(); ++i) {
            const Fork& f = forks[i];
            try {
                addResult(traced, tracedFork(f, snaps[f.snapshot],
                                             i, log, totals));
                if (traced.hashes.back() != first.hashes[i]) {
                    std::fprintf(stderr,
                                 "fork %s/%s: traced hash differs\n",
                                 f.tag.c_str(), f.benchmark.c_str());
                    ++mismatches;
                }
            } catch (const std::exception& e) {
                addFailure(traced, f, e.what());
            }
        }
        traced.wall = now() - t0 - totals.opSeconds;
        log.writeChromeTrace(args.traceOut);

        const ThermalProbe probe = probeThermal(
            Floorplan::ev6Like(forks.front().config.variant),
            forks.front().config.thermal,
            forks.front().config.sampleIntervalCycles,
            forks.front().config.pipeline.frequencyHz);

        out.num("traced_wall_s", traced.wall)
            .num("traced_failed", traced.failed)
            .num("traced_mismatches", mismatches)
            .num("uarch_cycles", totals.ticked)
            .num("uarch_stall_cycles", totals.stalled)
            .num("workload_ns_per_op",
                 totals.ops ? totals.opSeconds * 1e9 / totals.ops : 0.0)
            .num("workload_checksum", totals.checksum)
            .num("thermal_nodes",
                 static_cast<std::uint64_t>(totals.nodes))
            .num("thermal_propagators",
                 static_cast<std::uint64_t>(totals.propagators))
            .num("thermal_step_us", probe.stepUs)
            .num("thermal_propagator_ms", probe.propagatorMs);
    }
    out.num("peak_rss_kb", peakRssKb());
    std::printf("%s\n", out.done().c_str());
    return 0;
}

} // namespace perfbench
