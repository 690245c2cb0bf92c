/**
 * @file
 * Sweep-fabric coordinator: the process backend of the job
 * executor (DESIGN.md §15).
 *
 * The coordinator runs a runner job list (sim/runner.hh) over a
 * pool of worker processes connected by per-worker Unix
 * socketpairs, detects worker death (EOF/POLLHUP + waitpid) or
 * job timeout and re-queues the dead worker's shard onto
 * survivors, and merges outcomes by job index — never by arrival
 * order — so the outcome set is bit-identical to the thread
 * backend's at any worker count and across any failure/recovery
 * history. Warm state ships by file path: a warm-fork list's warm
 * jobs write their snapshots, and its forks read them
 * (experiments::runWarmFork runs the two phases on this backend
 * as on threads).
 *
 * A job travels as dotted config keys plus its seed. A job whose
 * config does not survive that round trip (a field without a key,
 * such as an energy constant, differs from its default) is refused
 * before dispatch: a worker would silently run a different
 * simulation.
 *
 * Failure model:
 *  - A job that *fails* (simulation throws on a worker) is a
 *    completed outcome with ok=false, exactly like runJob on a
 *    thread; it is never retried.
 *  - A worker that *dies* mid-job (crash, SIGKILL, timeout) gets
 *    its shard re-queued at the front of the queue, up to
 *    maxJobAttempts dispatches; past that the job is recorded as
 *    failed (a poison shard must not crash the pool forever).
 *  - When every worker is dead and shards remain, the coordinator
 *    respawns workers from a bounded budget before giving up.
 *
 * Concurrency audit: the coordinator itself is single-threaded —
 * isolation is process-level (state crosses only the socketpair
 * wire, in the fabric_protocol format checked by the
 * protocol-schema lint pass), so unlike the serve daemon there
 * are no locks to annotate here.
 */

#ifndef TEMPEST_SIM_FABRIC_COORDINATOR_HH
#define TEMPEST_SIM_FABRIC_COORDINATOR_HH

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/runner.hh"

namespace tempest
{
namespace fabric
{

/** Pool shape and recovery policy. */
struct FabricOptions
{
    /** Worker process count (clamped to [1, jobs]). */
    int workers = 1;
    /** argv to exec for each worker; "--worker-fd <n>" is
     * appended. Empty: fork-mode — the child calls workerMain()
     * directly (no exec), which is what tests and benches use. */
    std::vector<std::string> workerCommand;
    /** SIGKILL + re-queue a job running longer than this (hung
     * worker recovery). 0 disables the deadline. */
    double jobTimeoutSeconds = 0;
    /** Dispatch attempts per job before it is recorded as failed
     * (worker-death retries; simulation errors never retry). */
    int maxJobAttempts = 3;
    /** Workers respawned after total pool loss before the
     * remaining shards are failed; <0 picks 2*workers+2. */
    int respawnBudget = -1;
    /** Observability hook: spawn/death/re-queue/timeout events as
     * human-readable lines (never part of any result). */
    std::function<void(const std::string&)> onEvent;
};

class FabricCoordinator
{
  public:
    explicit FabricCoordinator(FabricOptions options)
        : options_(std::move(options))
    {}

    /**
     * Run `jobs` across the pool and return outcomes by index —
     * the process backend, bit-identical to runJobs() on threads.
     */
    std::vector<Outcome> runJobs(const std::vector<Job>& jobs);

    const FabricOptions& options() const { return options_; }

  private:
    void event(const std::string& message) const;

    FabricOptions options_;
};

} // namespace fabric
} // namespace tempest

#endif // TEMPEST_SIM_FABRIC_COORDINATOR_HH
