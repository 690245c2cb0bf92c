/**
 * @file
 * Sweep-fabric tests (DESIGN.md §15): wire-protocol round trips,
 * bit-exact CmpResult transport, bounded blob decoding, and the
 * process backend — including the contract the whole subsystem
 * exists for: job lists run on worker processes are bit-identical
 * to the thread backend at any worker count, before and after
 * worker death, re-queue, and respawn, for single-core and CMP
 * jobs alike.
 */

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/log.hh"
#include "sim/checkpoint/stateio.hh"
#include "sim/experiment.hh"
#include "sim/fabric/coordinator.hh"
#include "sim/fabric/fabric_protocol.hh"
#include "sim/paper.hh"
#include "sim/runner.hh"

using namespace tempest;
using namespace tempest::fabric;

namespace
{

/** A 2-core result with migration on: every CmpResult field is
 * populated. */
CmpResult
smallCmpResult()
{
    CmpSimConfig config;
    config.base = experiments::iqBase();
    config.base.runSeed = 42;
    config.cores = 2;
    config.benchmarks = {"art", "mesa"};
    config.migration.enabled = true;
    return CmpSimulator(config).run(20000);
}

std::vector<std::uint64_t>
hashesOf(const std::vector<Outcome>& outcomes)
{
    std::vector<std::uint64_t> hashes;
    hashes.reserve(outcomes.size());
    for (const Outcome& o : outcomes) {
        EXPECT_TRUE(o.ok) << o.tag << "/" << o.benchmark << ": "
                          << o.error;
        hashes.push_back(o.ok ? hashCmpResult(o.result) : 0);
    }
    return hashes;
}

/** The small sweep every pool test runs: 2 configs x 2
 * benchmarks. */
std::vector<Job>
smallSweep()
{
    return experiments::sweepJobs(
        {{"base", experiments::iqBase()},
         {"toggling", experiments::iqToggling()}},
        {"art", "mesa"}, 50000, 1);
}

} // namespace

// ---------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------

TEST(FabricProtocol, HexRoundTrip)
{
    const std::string bytes("\x00\x01\xfe\xff\x80 abc", 9);
    EXPECT_EQ(hexDecode(hexEncode(bytes)), bytes);
    EXPECT_EQ(hexEncode(std::string()), "");
    EXPECT_THROW(hexDecode("abc"), FatalError);  // odd length
    EXPECT_THROW(hexDecode("zz"), FatalError);   // bad digit
    EXPECT_EQ(parseHexU64("0xffffffffffffffff"),
              0xffffffffffffffffULL);
    EXPECT_THROW(parseHexU64("gg"), FatalError);
}

TEST(FabricProtocol, JobRoundTrip)
{
    // A fork of a 4-core stacked die, at a seed run.seed could
    // not carry (>= 2^63).
    Job job = paper::cmpScaleJobs(2'000'000).back();
    job.tag = "iq_toggling";
    job.config.base.dtm.iqToggling = true;
    job.config.base.runSeed = 0xdeadbeefcafef00dULL;
    job.snapshot = "/spill/warm_mesa.ckpt";

    const auto [index, back] =
        parseJob(serve::Json::parse(encodeJob(7, job)));
    EXPECT_EQ(index, 7u);
    EXPECT_EQ(back.tag, job.tag);
    EXPECT_EQ(back.cycles, job.cycles);
    EXPECT_TRUE(back.config == job.config);
    EXPECT_EQ(back.config.base.runSeed, job.config.base.runSeed);
    EXPECT_EQ(back.snapshot, job.snapshot);
    EXPECT_FALSE(back.warm);
}

TEST(FabricProtocol, WarmJobRoundTrips)
{
    Job job = experiments::singleCoreJob(
        "warmup", experiments::iqBase(), "art", 1000);
    job.snapshot = "/tmp/x.ckpt";
    job.warm = true;
    const auto [index, back] =
        parseJob(serve::Json::parse(encodeJob(0, job)));
    EXPECT_EQ(index, 0u);
    EXPECT_TRUE(back.warm);
    EXPECT_EQ(back.snapshot, job.snapshot);
    EXPECT_TRUE(back.config == job.config);
}

TEST(FabricProtocol, WarmJobWithoutSnapshotPathIsFatal)
{
    Job job = experiments::singleCoreJob(
        "warmup", experiments::iqBase(), "art", 1000);
    job.warm = true;
    EXPECT_THROW(parseJob(serve::Json::parse(encodeJob(0, job))),
                 FatalError);
}

TEST(FabricProtocol, JobWithAnUnknownConfigKeyIsFatal)
{
    const Job job = experiments::singleCoreJob(
        "cold", experiments::iqBase(), "art", 1000);
    serve::Json doc = serve::Json::parse(encodeJob(0, job));
    doc["config"]["dtm.togling"] = serve::Json("true");
    EXPECT_THROW(parseJob(doc), FatalError);
}

TEST(FabricProtocol, ResultRoundTripPreservesEveryBit)
{
    Outcome out;
    out.ok = true;
    out.result = smallCmpResult();
    out.wallSeconds = 0.25;
    ASSERT_EQ(out.result.cores.size(), 2u);
    ASSERT_FALSE(out.result.shared.empty());

    const auto [index, back] =
        parseResult(serve::Json::parse(encodeResult(3, out)));
    EXPECT_EQ(index, 3u);
    ASSERT_TRUE(back.ok) << back.error;
    // The decoded result must hash identically: every field,
    // every counter, every double bit pattern survived the trip.
    EXPECT_EQ(hashCmpResult(back.result), hashCmpResult(out.result));
    EXPECT_EQ(back.result.tileOfJob, out.result.tileOfJob);
    EXPECT_EQ(back.wallSeconds, out.wallSeconds);
}

TEST(FabricProtocol, CorruptedResultFailsTheHashCheck)
{
    Outcome out;
    out.ok = true;
    out.result = smallCmpResult();
    serve::Json doc =
        serve::Json::parse(encodeResult(0, out));
    doc["result_hash"] = serve::Json("0x1");
    const auto [index, back] = parseResult(doc);
    EXPECT_FALSE(back.ok);
    EXPECT_NE(back.error.find("result hash mismatch"),
              std::string::npos)
        << back.error;
}

TEST(FabricProtocol, ErrorResultRoundTrip)
{
    Outcome out;
    out.error = "unknown benchmark 'nope'";
    const auto [index, back] =
        parseResult(serve::Json::parse(encodeResult(9, out)));
    EXPECT_EQ(index, 9u);
    EXPECT_FALSE(back.ok);
    EXPECT_EQ(back.error, out.error);
}

TEST(FabricProtocol, BlobDetectsTrailingBytes)
{
    const CmpResult result = smallCmpResult();
    const std::string sim = encodeSimResultBlob(result.cores[0]);
    EXPECT_THROW(decodeSimResultBlob(sim + "x"), FatalError);
    EXPECT_THROW(decodeSimResultBlob(sim.substr(0, sim.size() - 1)),
                 FatalError);
    const std::string cmp = encodeCmpResultBlob(result);
    EXPECT_THROW(decodeCmpResultBlob(cmp + "x"), FatalError);
    EXPECT_THROW(decodeCmpResultBlob(cmp.substr(0, cmp.size() - 1)),
                 FatalError);
}

// Each count a result blob carries is checked against the bytes
// left before anything is sized by it: a count of 0xFFFFFFFF must
// be a FatalError, not a multi-gigabyte allocation.

constexpr std::uint32_t kHugeCount = 0xFFFFFFFFu;

TEST(FabricProtocol, BlobRejectsAHugeBlockCount)
{
    const SimResult r;
    StateWriter w;
    w.str("art");
    w.f64(r.ipc);
    w.u64(r.cycles);
    w.u64(r.instructions);
    w.u64(r.stallCycles);
    w.blob(&r.dtm, sizeof(r.dtm));
    w.blob(&r.activity, sizeof(r.activity));
    w.u32(kHugeCount);
    EXPECT_THROW(decodeSimResultBlob(w.bytes()), FatalError);
}

TEST(FabricProtocol, BlobRejectsAHugeCoreCount)
{
    StateWriter w;
    w.u32(kHugeCount);
    w.str(encodeSimResultBlob(SimResult()));
    EXPECT_THROW(decodeCmpResultBlob(w.bytes()), FatalError);
}

TEST(FabricProtocol, BlobRejectsAHugeSharedBlockCount)
{
    StateWriter w;
    w.u32(0);
    w.u32(kHugeCount);
    w.str("L2");
    EXPECT_THROW(decodeCmpResultBlob(w.bytes()), FatalError);
}

TEST(FabricProtocol, BlobRejectsAHugePlacementCount)
{
    const CmpDtmStats migration;
    StateWriter w;
    w.u32(0);
    w.u32(0);
    w.blob(&migration, sizeof(migration));
    w.u32(kHugeCount);
    w.i32(0);
    EXPECT_THROW(decodeCmpResultBlob(w.bytes()), FatalError);
}

// ---------------------------------------------------------------
// Process backend: bit-identity with the thread backend
// ---------------------------------------------------------------

TEST(FabricCoordinatorPool, ColdSweepBitIdenticalAcrossWorkerCounts)
{
    const std::vector<Job> jobs = smallSweep();
    const std::vector<Outcome> reference = runJobs(jobs, 2);
    const std::vector<std::uint64_t> expected = hashesOf(reference);

    for (const int workers : {1, 2, 8}) {
        FabricOptions options;
        options.workers = workers;
        const std::vector<Outcome> outcomes =
            FabricCoordinator(options).runJobs(jobs);
        ASSERT_EQ(outcomes.size(), reference.size());
        EXPECT_EQ(hashesOf(outcomes), expected)
            << "at " << workers << " workers";
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            EXPECT_EQ(outcomes[i].tag, reference[i].tag);
            EXPECT_EQ(outcomes[i].benchmark,
                      reference[i].benchmark);
            EXPECT_EQ(outcomes[i].seed, reference[i].seed);
        }
    }
}

/** The same CMP jobs on threads at 1/2/4 and on worker processes
 * at 1/2/4 give equal hashCmpResults. */
TEST(FabricCoordinatorPool, CmpSweepMatchesAcrossBackends)
{
    const std::vector<Job> jobs = paper::cmpScaleJobs(50000);
    const std::vector<std::uint64_t> expected =
        hashesOf(runJobs(jobs, 1));
    for (const int n : {1, 2, 4}) {
        EXPECT_EQ(hashesOf(runJobs(jobs, n)), expected)
            << "at " << n << " threads";
        FabricOptions options;
        options.workers = n;
        EXPECT_EQ(hashesOf(FabricCoordinator(options).runJobs(jobs)),
                  expected)
            << "at " << n << " worker processes";
    }
}

TEST(FabricCoordinatorPool, WarmForkBitIdenticalToThreads)
{
    const experiments::SpillDir spill;
    const std::vector<Job> jobs = experiments::warmForkJobs(
        {{"base", experiments::iqBase()},
         {"toggling", experiments::iqToggling()}},
        {"art", "mesa"}, experiments::iqBase(), 5000, 50000, 1,
        spill.path());
    const std::vector<Outcome> reference = experiments::runWarmFork(
        jobs, [](const std::vector<Job>& batch) {
            return runJobs(batch, 2);
        });
    FabricOptions options;
    options.workers = 2;
    FabricCoordinator coordinator(options);
    const std::vector<Outcome> outcomes = experiments::runWarmFork(
        jobs, [&](const std::vector<Job>& batch) {
            return coordinator.runJobs(batch);
        });

    EXPECT_EQ(hashesOf(outcomes), hashesOf(reference));
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        EXPECT_EQ(outcomes[i].seed, reference[i].seed);
}

TEST(FabricCoordinatorPool, RefusesAConfigTheKeysCannotCarry)
{
    // The long-wire ablation's energy has no dotted key: a worker
    // would rebuild the default and silently run another config.
    SimConfig config = experiments::iqBase();
    config.energy.iqLongCompaction = EnergyParams::paperLongCompaction;
    const std::vector<Job> jobs = experiments::sweepJobs(
        {{"iq_base", experiments::iqBase()}, {"long_wire", config}},
        {"art"}, 20000, 1);

    const std::vector<Outcome> outcomes =
        FabricCoordinator(FabricOptions{}).runJobs(jobs);
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_FALSE(outcomes[1].ok);
    EXPECT_NE(outcomes[1].error.find("long_wire/art"),
              std::string::npos)
        << outcomes[1].error;

    // The thread backend runs the same job.
    const std::vector<Outcome> local = runJobs(jobs, 2);
    EXPECT_TRUE(local[1].ok) << local[1].error;
}

TEST(FabricCoordinatorPool, SimulationFailureIsNotRetried)
{
    const std::vector<Job> jobs = experiments::sweepJobs(
        {{"base", experiments::iqBase()}},
        {"art", "definitely_not_a_benchmark"}, 20000, 1);

    std::mutex mu;
    std::vector<std::string> events;
    FabricOptions options;
    options.workers = 2;
    options.onEvent = [&](const std::string& msg) {
        const std::lock_guard<std::mutex> lock(mu);
        events.push_back(msg);
    };
    const std::vector<Outcome> outcomes =
        FabricCoordinator(options).runJobs(jobs);
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_FALSE(outcomes[1].ok);
    EXPECT_NE(
        outcomes[1].error.find("definitely_not_a_benchmark"),
        std::string::npos)
        << outcomes[1].error;
    for (const std::string& e : events)
        EXPECT_EQ(e.find("re-queued"), std::string::npos) << e;
}

// ---------------------------------------------------------------
// Failure recovery: death, re-queue, respawn, timeout
// ---------------------------------------------------------------

TEST(FabricRecovery, KilledWorkerShardsRequeueBitIdentically)
{
    const std::vector<std::uint64_t> expected =
        hashesOf(runJobs(smallSweep(), 2));

    // Kill the worker that receives the first dispatched shard,
    // as soon as we see the dispatch event. The coordinator must
    // re-queue that shard onto a survivor (or respawn) and the
    // merged sweep must still be bit-identical.
    std::mutex mu;
    std::vector<std::string> events;
    std::atomic<bool> killed{false};
    FabricOptions options;
    options.workers = 2;
    options.onEvent = [&](const std::string& msg) {
        const std::lock_guard<std::mutex> lock(mu);
        events.push_back(msg);
        const std::string marker = " to worker ";
        const std::size_t at = msg.find(marker);
        if (msg.rfind("dispatched ", 0) == 0 &&
            at != std::string::npos &&
            !killed.exchange(true)) {
            const pid_t pid = static_cast<pid_t>(std::stol(
                msg.substr(at + marker.size())));
            kill(pid, SIGKILL);
        }
    };
    FabricCoordinator coordinator(options);
    const std::vector<Outcome> outcomes =
        coordinator.runJobs(smallSweep());

    EXPECT_EQ(hashesOf(outcomes), expected);
    bool requeued = false;
    {
        const std::lock_guard<std::mutex> lock(mu);
        for (const std::string& e : events)
            requeued |= e.find("re-queued") != std::string::npos;
    }
    EXPECT_TRUE(requeued)
        << "the killed worker's shard was never re-queued";
}

TEST(FabricRecovery, TotalPoolLossRespawnsWorkers)
{
    const std::vector<std::uint64_t> expected =
        hashesOf(runJobs(smallSweep(), 2));

    // Kill EVERY worker once (by pid, as spawned). The pool hits
    // zero survivors at least once and must respawn from budget.
    std::mutex mu;
    std::vector<std::string> events;
    std::size_t kills = 0;
    FabricOptions options;
    options.workers = 1;
    options.onEvent = [&](const std::string& msg) {
        const std::lock_guard<std::mutex> lock(mu);
        events.push_back(msg);
        const std::string marker = " to worker ";
        const std::size_t at = msg.find(marker);
        if (kills < 2 && msg.rfind("dispatched ", 0) == 0 &&
            at != std::string::npos) {
            ++kills;
            const pid_t pid = static_cast<pid_t>(std::stol(
                msg.substr(at + marker.size())));
            kill(pid, SIGKILL);
        }
    };
    FabricCoordinator coordinator(options);
    const std::vector<Outcome> outcomes =
        coordinator.runJobs(smallSweep());

    EXPECT_EQ(hashesOf(outcomes), expected);
    bool respawned = false;
    {
        const std::lock_guard<std::mutex> lock(mu);
        for (const std::string& e : events)
            respawned |=
                e.find("respawning") != std::string::npos;
    }
    EXPECT_TRUE(respawned)
        << "pool never respawned after total loss";
}

TEST(FabricRecovery, PoisonShardFailsAfterAttemptBudget)
{
    // A worker command that dies before saying hello: every
    // spawn is lost, the respawn budget drains, and the jobs
    // fail cleanly instead of looping forever.
    const std::vector<Job> jobs = experiments::sweepJobs(
        {{"base", experiments::iqBase()}}, {"art"}, 1000, 1);

    FabricOptions options;
    options.workers = 2;
    options.workerCommand = {"/bin/false"};
    options.respawnBudget = 2;
    FabricCoordinator coordinator(options);
    const std::vector<Outcome> outcomes =
        coordinator.runJobs(jobs);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_FALSE(outcomes[0].error.empty());
}

TEST(FabricRecovery, HungJobIsKilledByTimeoutAndBounded)
{
    // One job big enough to blow the deadline every attempt: the
    // timeout must SIGKILL the worker, re-queue, and finally
    // fail the job after maxJobAttempts dispatches.
    const std::vector<Job> jobs = experiments::sweepJobs(
        {{"base", experiments::iqBase()}}, {"art"},
        2'000'000'000ULL, 1);

    std::mutex mu;
    std::size_t timeouts = 0;
    FabricOptions options;
    options.workers = 1;
    options.jobTimeoutSeconds = 0.2;
    options.maxJobAttempts = 2;
    options.onEvent = [&](const std::string& msg) {
        const std::lock_guard<std::mutex> lock(mu);
        if (msg.find("exceeded") != std::string::npos)
            ++timeouts;
    };
    FabricCoordinator coordinator(options);
    const std::vector<Outcome> outcomes =
        coordinator.runJobs(jobs);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_NE(outcomes[0].error.find("job timeout"),
              std::string::npos)
        << outcomes[0].error;
    EXPECT_EQ(timeouts, 2u);
}
