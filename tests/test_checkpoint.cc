/**
 * @file
 * Checkpoint/restore subsystem tests.
 *
 * The heart of the suite is bit-identity: saving at an interval
 * boundary, restoring into a *fresh* simulator, and running to the
 * end must produce exactly the same full-SimResult FNV-1a hash as
 * a straight-through run — per config, per benchmark, through the
 * in-memory fork path and through a disk round-trip. On top of
 * that: corruption (truncation, flipped payload bytes) must fail
 * with a clear FatalError, snapshots of another format version and
 * identity mismatches must be rejected, unknown chunks must be
 * skipped (forward compatibility), and the warm-fork sweep must be
 * bit-identical at 1/2/8 threads and to the in-memory snapshot
 * path tempest_serve uses.
 *
 * Coverage of the visitors themselves is enforced statically by
 * tools/lint/tempest_lint.py (ctest: lint_tree; DESIGN.md §12):
 * each class implementing saveState/loadState must reference every
 * non-static member in both bodies, in the same order, with a
 * mirrored serializer-call sequence — so deleting any single field
 * write fails the lint before it can fail (or worse, silently
 * pass) the round-trip tests here. Members that are intentionally
 * not serialized carry `// ckpt:skip(<reason>)` on their
 * declaration; the reason is mandatory and must be one of:
 * derived/rebuildable cache, config-owned reference, sub-component
 * serialized separately (CmpSimulator::saveEngineContext), or
 * per-cycle scratch. When adding a member to a checkpointable
 * class, either wire it through both visitors (and extend the
 * round-trip coverage here) or annotate it — never leave it bare.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "sim/checkpoint/checkpoint.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "uarch/bpred.hh"
#include "workload/profile.hh"

namespace tempest
{
namespace
{

using experiments::hashSimResult;

/** 4 intervals at the experiment sampling interval; save at 2. */
constexpr std::uint64_t kRunCycles = 200'000;
constexpr std::uint64_t kSaveCycle = 100'000;

struct CaseId
{
    const char* config;
    const char* benchmark;
};

constexpr CaseId kCases[] = {
    {"iq_base", "art"},
    {"iq_base", "facerec"},
    {"iq_base", "mesa"},
    {"iq_toggling", "art"},
    {"iq_toggling", "facerec"},
    {"iq_toggling", "mesa"},
    {"alu_turnoff", "art"},
    {"alu_turnoff", "facerec"},
    {"alu_turnoff", "mesa"},
    {"regfile_balanced", "art"},
    {"regfile_balanced", "facerec"},
    {"regfile_balanced", "mesa"},
};

SimConfig
configFor(const std::string& name)
{
    if (name == "iq_base")
        return experiments::iqBase();
    if (name == "iq_toggling")
        return experiments::iqToggling();
    if (name == "alu_turnoff")
        return experiments::aluFineGrain();
    if (name == "regfile_balanced")
        return experiments::regfileConfig(PortMapping::Balanced,
                                          /*fine_grain=*/true);
    ADD_FAILURE() << "unknown config " << name;
    return experiments::iqBase();
}

SimConfig
seededConfig(const std::string& name, const std::string& benchmark)
{
    SimConfig config = configFor(name);
    config.runSeed = deriveRunSeed(1, benchmark, name);
    return config;
}

std::string
tempPath(const std::string& leaf)
{
    return (std::filesystem::temp_directory_path() / leaf).string();
}

TEST(Checkpoint, SaveRestoreBitIdentityAllConfigs)
{
    for (const CaseId& c : kCases) {
        const SimConfig config =
            seededConfig(c.config, c.benchmark);
        const BenchmarkProfile profile = spec2000(c.benchmark);

        Simulator straight(config, profile);
        const std::uint64_t golden =
            hashSimResult(straight.run(kRunCycles));

        // Save at interval k on a second simulator...
        Simulator saver(config, profile);
        saver.runTo(kSaveCycle);
        const std::string bytes = saver.saveCheckpoint();

        // ...restore into a *fresh* simulator (in-memory path).
        Simulator memResume(config, profile);
        memResume.restoreCheckpoint(bytes);
        memResume.runTo(kRunCycles);
        EXPECT_EQ(hashSimResult(memResume.result()), golden)
            << c.config << "/" << c.benchmark
            << ": in-memory restore diverged";

        // ...and through a disk round-trip.
        const std::string path = tempPath(
            std::string("tempest_ckpt_") + c.config + "_" +
            c.benchmark + ".ckpt");
        writeCheckpointFile(path, bytes);
        Simulator diskResume(config, profile);
        diskResume.restoreCheckpoint(readCheckpointFile(path));
        diskResume.runTo(kRunCycles);
        EXPECT_EQ(hashSimResult(diskResume.result()), golden)
            << c.config << "/" << c.benchmark
            << ": disk restore diverged";
        std::filesystem::remove(path);

        // The saver itself must also be unperturbed by the save.
        saver.runTo(kRunCycles);
        EXPECT_EQ(hashSimResult(saver.result()), golden)
            << c.config << "/" << c.benchmark
            << ": saveCheckpoint() perturbed the simulation";
    }
}

TEST(Checkpoint, ConcurrentWritersToOnePathNeverTearTheFile)
{
    // Regression: the staging file used to be the fixed
    // `path + ".tmp"`, so two concurrent writers (the serve
    // daemon's warm pool, parallel sweeps sharing a checkpoint
    // dir) interleaved writes into the same temporary and could
    // rename a torn file into place. With per-writer unique
    // staging, the final file must always parse and equal one
    // writer's payload exactly.
    const std::string path =
        tempPath("tempest_ckpt_concurrent.ckpt");
    std::filesystem::remove(path);

    constexpr int kWriters = 8;
    constexpr int kRounds = 25;
    std::vector<std::string> payloads;
    payloads.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w) {
        CheckpointWriter writer;
        StateWriter& chunk = writer.chunk(chunkId("TEST"));
        // Distinct sizes so a torn mix of two payloads can't
        // accidentally reproduce a valid container.
        for (int i = 0; i <= w * 64; ++i)
            chunk.u64(static_cast<std::uint64_t>(w) * 1000 +
                      static_cast<std::uint64_t>(i));
        payloads.push_back(writer.serialize());
    }

    std::vector<std::thread> threads;
    threads.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w) {
        threads.emplace_back([&, w] {
            for (int r = 0; r < kRounds; ++r)
                writeCheckpointFile(path, payloads[
                    static_cast<std::size_t>(w)]);
        });
    }
    for (std::thread& t : threads)
        t.join();

    const std::string final_bytes = readCheckpointFile(path);
    EXPECT_NE(std::find(payloads.begin(), payloads.end(),
                        final_bytes),
              payloads.end())
        << "surviving file matches no single writer's payload";
    // Every chunk checksum must validate (no torn container).
    EXPECT_NO_THROW(CheckpointReader reader(final_bytes));

    // No abandoned staging files: every writer renamed or
    // failed loudly, nothing leaked `<path>.tmp.*` siblings.
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    const std::string stem =
        std::filesystem::path(path).filename().string() +
        ".tmp.";
    for (const auto& entry :
         std::filesystem::directory_iterator(parent)) {
        EXPECT_NE(
            entry.path().filename().string().find(stem), 0u)
            << "leaked staging file: " << entry.path();
    }
    std::filesystem::remove(path);
}

TEST(Checkpoint, TruncatedFileIsAClearError)
{
    const SimConfig config = seededConfig("iq_base", "art");
    Simulator sim(config, spec2000("art"));
    sim.runTo(kSaveCycle);
    const std::string bytes = sim.saveCheckpoint();

    // Truncation at any depth must surface as FatalError, not UB:
    // inside the header, inside the chunk table, and mid-payload.
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{4}, std::size_t{15},
          std::size_t{40}, bytes.size() / 2, bytes.size() - 1}) {
        Simulator fresh(config, spec2000("art"));
        EXPECT_THROW(
            fresh.restoreCheckpoint(bytes.substr(0, keep)),
            FatalError)
            << "truncated to " << keep << " bytes";
    }
}

TEST(Checkpoint, FlippedByteFailsTheChecksum)
{
    const SimConfig config = seededConfig("iq_base", "art");
    Simulator sim(config, spec2000("art"));
    sim.runTo(kSaveCycle);
    std::string bytes = sim.saveCheckpoint();

    // Flip one byte deep inside a chunk payload.
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
    Simulator fresh(config, spec2000("art"));
    EXPECT_THROW(fresh.restoreCheckpoint(bytes), FatalError);
}

TEST(Checkpoint, OlderFormatVersionIsRejected)
{
    const SimConfig config = seededConfig("iq_base", "art");
    Simulator sim(config, spec2000("art"));
    sim.runTo(kSaveCycle);
    std::string bytes = sim.saveCheckpoint();

    // Version 1 had a separate single-core chunk layout; its
    // snapshots must fail the version check, not be misread.
    bytes[8] = 1;
    bytes[9] = bytes[10] = bytes[11] = 0;
    Simulator fresh(config, spec2000("art"));
    EXPECT_THROW(fresh.restoreCheckpoint(bytes), FatalError);
}

TEST(Checkpoint, BadMagicIsRejected)
{
    const SimConfig config = seededConfig("iq_base", "art");
    Simulator sim(config, spec2000("art"));
    EXPECT_THROW(
        sim.restoreCheckpoint("this is not a checkpoint at all"),
        FatalError);
}

TEST(Checkpoint, IdentityMismatchIsRejected)
{
    const SimConfig config = seededConfig("iq_base", "art");
    Simulator sim(config, spec2000("art"));
    sim.runTo(kSaveCycle);
    const std::string bytes = sim.saveCheckpoint();

    // Wrong benchmark.
    Simulator other(config, spec2000("mesa"));
    EXPECT_THROW(other.restoreCheckpoint(bytes), FatalError);

    // Wrong run seed.
    SimConfig reseeded = config;
    reseeded.runSeed ^= 1;
    Simulator wrongSeed(reseeded, spec2000("art"));
    EXPECT_THROW(wrongSeed.restoreCheckpoint(bytes), FatalError);
}

/** Append an unrecognised chunk to serialized checkpoint bytes
 * (simulating a newer writer): bump the chunk count in the header
 * and append an id/flags/len/payload/checksum record. */
std::string
withUnknownChunk(std::string bytes)
{
    const std::uint32_t count =
        static_cast<std::uint32_t>(
            static_cast<unsigned char>(bytes[12])) |
        (static_cast<std::uint32_t>(
             static_cast<unsigned char>(bytes[13]))
         << 8) |
        (static_cast<std::uint32_t>(
             static_cast<unsigned char>(bytes[14]))
         << 16) |
        (static_cast<std::uint32_t>(
             static_cast<unsigned char>(bytes[15]))
         << 24);
    const std::uint32_t bumped = count + 1;
    for (int i = 0; i < 4; ++i) {
        bytes[static_cast<std::size_t>(12 + i)] =
            static_cast<char>((bumped >> (8 * i)) & 0xff);
    }

    CheckpointWriter extra;
    StateWriter& payload = extra.chunk(chunkId("XTRA"));
    payload.str("state from a component this build predates");
    const std::string serialized = extra.serialize();
    // Skip the 16-byte header of the single-chunk container and
    // append just the chunk record.
    bytes.append(serialized.substr(16));
    return bytes;
}

TEST(Checkpoint, UnknownChunksAreSkippedForwardCompatibly)
{
    const SimConfig config = seededConfig("iq_base", "art");
    const BenchmarkProfile profile = spec2000("art");

    Simulator straight(config, profile);
    const std::uint64_t golden =
        hashSimResult(straight.run(kRunCycles));

    Simulator saver(config, profile);
    saver.runTo(kSaveCycle);
    const std::string bytes =
        withUnknownChunk(saver.saveCheckpoint());

    const CheckpointReader reader(bytes);
    EXPECT_TRUE(reader.has(chunkId("XTRA")));
    EXPECT_TRUE(reader.has(chunkId("CMPM")));

    Simulator resume(config, profile);
    resume.restoreCheckpoint(bytes);
    resume.runTo(kRunCycles);
    EXPECT_EQ(hashSimResult(resume.result()), golden);
}

TEST(Checkpoint, MissingChunkIsAClearError)
{
    CheckpointWriter cp;
    cp.chunk(chunkId("AAAA")).u32(7);
    const std::string bytes = cp.serialize();
    const CheckpointReader reader(bytes);
    EXPECT_TRUE(reader.has(chunkId("AAAA")));
    EXPECT_FALSE(reader.has(chunkId("BBBB")));
    EXPECT_THROW(reader.chunk(chunkId("BBBB")), FatalError);
}

TEST(Checkpoint, ReaderBoundsChecksChunkPayloads)
{
    CheckpointWriter cp;
    cp.chunk(chunkId("AAAA")).u32(7);
    const std::string bytes = cp.serialize();
    const CheckpointReader reader(bytes);
    StateReader r = reader.chunk(chunkId("AAAA"));
    EXPECT_EQ(r.u32(), 7u);
    EXPECT_TRUE(r.atEnd());
    EXPECT_THROW(r.u32(), FatalError); // reads past the payload
}

TEST(Checkpoint, BranchPredictorRoundTrips)
{
    GsharePredictor a(/*table_bits=*/10);
    for (std::uint64_t pc = 0; pc < 4000; ++pc)
        a.update(pc * 37, (pc % 3) == 0);

    StateWriter w;
    a.saveState(w);

    GsharePredictor b(/*table_bits=*/10);
    StateReader r(w.bytes());
    b.loadState(r);
    EXPECT_TRUE(r.atEnd());

    EXPECT_EQ(b.history(), a.history());
    EXPECT_EQ(b.lookups(), a.lookups());
    EXPECT_EQ(b.mispredicts(), a.mispredicts());
    for (std::uint64_t pc = 0; pc < 2000; ++pc)
        ASSERT_EQ(b.predict(pc * 13), a.predict(pc * 13));

    // Geometry mismatch is rejected.
    GsharePredictor wrong(/*table_bits=*/12);
    StateReader r2(w.bytes());
    EXPECT_THROW(wrong.loadState(r2), FatalError);
}

// ---- warm-state forking ----

const std::vector<std::pair<std::string, SimConfig>>&
warmForkConfigs()
{
    static const std::vector<std::pair<std::string, SimConfig>> all = {
        {"iq_base", configFor("iq_base")},
        {"iq_toggling", configFor("iq_toggling")},
    };
    return all;
}

/** The warm-fork sweep on `threads` threads: its hashes, warm
 * jobs included (an empty result hashes alike). */
std::vector<std::uint64_t>
warmForkHashes(int threads)
{
    const experiments::SpillDir spill;
    const std::vector<Job> jobs = experiments::warmForkJobs(
        warmForkConfigs(), {"art", "mesa"}, configFor("iq_base"),
        kSaveCycle, kRunCycles - kSaveCycle, 1, spill.path());
    const std::vector<Outcome> outcomes = experiments::runWarmFork(
        jobs, [threads](const std::vector<Job>& batch) {
            return runJobs(batch, threads);
        });
    std::vector<std::uint64_t> hashes;
    for (const Outcome& out : outcomes) {
        EXPECT_TRUE(out.ok) << out.tag << "/" << out.benchmark
                            << ": " << out.error;
        EXPECT_GE(out.wallSeconds, 0.0);
        hashes.push_back(hashCmpResult(out.result));
    }
    return hashes;
}

TEST(WarmFork, BitIdenticalAcrossThreadCounts)
{
    const std::vector<std::uint64_t> serial = warmForkHashes(1);
    EXPECT_EQ(warmForkHashes(2), serial);
    EXPECT_EQ(warmForkHashes(8), serial);
}

/** A fork job (snapshot through a file) equals the in-memory pair
 * warmSnapshot/runFromSnapshot that tempest_serve uses. */
TEST(WarmFork, SpilledForksMatchInMemorySnapshots)
{
    const experiments::SpillDir spill;
    const std::vector<Job> jobs = experiments::warmForkJobs(
        warmForkConfigs(), {"art"}, configFor("iq_base"), kSaveCycle,
        kRunCycles - kSaveCycle, 1, spill.path());
    ASSERT_EQ(jobs.size(), 3u);
    EXPECT_TRUE(runJob(jobs[0]).ok);
    EXPECT_EQ(jobs[0].snapshot, spill.path() + "/warm_art.ckpt");

    const std::uint64_t seed = deriveRunSeed(1, "art", "warmup");
    const std::string snapshot = experiments::warmSnapshot(
        configFor("iq_base"), "art", seed, kSaveCycle);
    EXPECT_EQ(readCheckpointFile(jobs[0].snapshot), snapshot);
    for (std::size_t c = 0; c < 2; ++c) {
        const Outcome fork = runJob(jobs[1 + c]);
        ASSERT_TRUE(fork.ok) << fork.error;
        EXPECT_EQ(hashSimResult(fork.result.cores.front()),
                  hashSimResult(experiments::runFromSnapshot(
                      warmForkConfigs()[c].second, "art", seed,
                      snapshot, kRunCycles - kSaveCycle)));
    }
}

TEST(WarmFork, ForksShareTheWarmupSeedAndMeasureOnlyTheTail)
{
    const experiments::SpillDir spill;
    const auto outcomes = experiments::runWarmFork(
        experiments::warmForkJobs(warmForkConfigs(), {"art"},
                                  configFor("iq_base"), kSaveCycle,
                                  kRunCycles - kSaveCycle, 1,
                                  spill.path()),
        [](const std::vector<Job>& batch) {
            return runJobs(batch, 1);
        });
    ASSERT_EQ(outcomes.size(), 3u); // the warm-up, then two forks
    const std::uint64_t warm_seed =
        deriveRunSeed(1, "art", "warmup");
    for (const Outcome& out : outcomes) {
        ASSERT_TRUE(out.ok) << out.error;
        EXPECT_EQ(out.seed, warm_seed);
    }
    for (std::size_t i = 1; i < outcomes.size(); ++i) {
        // Measurement covers only the post-fork region: at least
        // the requested cycles, and strictly less than warm-up +
        // measure (cooling stalls can extend the last interval).
        const SimResult& r = outcomes[i].result.cores.front();
        EXPECT_GE(r.cycles, kRunCycles - kSaveCycle);
        EXPECT_LT(r.cycles, kRunCycles);
    }
}

TEST(WarmFork, FailedWarmupFailsItsForksWithoutRunningThem)
{
    const experiments::SpillDir spill;
    // A spill path inside a missing directory: the warm job cannot
    // write its snapshot.
    const auto outcomes = experiments::runWarmFork(
        experiments::warmForkJobs(warmForkConfigs(), {"art"},
                                  configFor("iq_base"), kSaveCycle,
                                  kSaveCycle, 1,
                                  spill.path() + "/missing"),
        [](const std::vector<Job>& batch) {
            return runJobs(batch, 2);
        });
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_FALSE(outcomes[0].ok);
    for (std::size_t i = 1; i < outcomes.size(); ++i) {
        EXPECT_FALSE(outcomes[i].ok);
        EXPECT_EQ(outcomes[i].error,
                  "warm-up failed: " + outcomes[0].error);
        EXPECT_EQ(outcomes[i].wallSeconds, 0.0);
    }
}

TEST(WarmFork, NeedsASpillDirectory)
{
    EXPECT_THROW(experiments::warmForkJobs(warmForkConfigs(), {"art"},
                                           configFor("iq_base"),
                                           kSaveCycle, kSaveCycle, 1,
                                           ""),
                 FatalError);
}

} // namespace
} // namespace tempest
