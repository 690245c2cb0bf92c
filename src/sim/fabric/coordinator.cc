#include "sim/fabric/coordinator.hh"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <deque>
#include <string>

#include "common/log.hh"
#include "sim/fabric/worker.hh"

namespace tempest
{
namespace fabric
{

namespace
{

/** Monotonic seconds for scheduling deadlines. */
double
nowSeconds()
{
    return std::chrono::duration<double>(
               // det:allow(scheduling deadlines only; never feeds simulation state)
               std::chrono::steady_clock::now()
                   .time_since_epoch())
        .count();
}

/** Write "line\n", retrying short writes; MSG_NOSIGNAL so a dead
 * worker surfaces as an error, not SIGPIPE. */
bool
sendLine(int fd, const std::string& line)
{
    const std::string data = line + "\n";
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off,
                                 data.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/** One worker process as the coordinator sees it. */
struct Proc
{
    pid_t pid = -1;
    int fd = -1; ///< parent end of the socketpair; -1 = gone
    std::string buffer;
    bool ready = false;      ///< hello received
    std::ptrdiff_t job = -1; ///< index into jobs; -1 = idle
    double deadline = 0;     ///< job deadline (when timeouts on)

    bool alive() const { return fd >= 0; }
};

/** Why `job` cannot travel to a worker, or "" if it can: the
 * worker rebuilds the config from the job message, so any field
 * the dotted keys do not carry must hold its default. */
std::string
refusal(const Job& job)
{
    try {
        if (parseJob(serve::Json::parse(encodeJob(0, job)))
                .second.config == job.config)
            return "";
    } catch (const std::exception& e) {
        return e.what();
    }
    return "its config has a field the dotted config keys do not "
           "carry";
}

} // namespace

void
FabricCoordinator::event(const std::string& message) const
{
    if (options_.onEvent)
        options_.onEvent(message);
}

std::vector<Outcome>
FabricCoordinator::runJobs(const std::vector<Job>& jobs)
{
    const std::size_t total = jobs.size();
    std::vector<Outcome> results;
    results.reserve(total);
    std::deque<std::size_t> queue;
    std::vector<int> attempts(total, 0);
    std::vector<char> done(total, 0);
    std::size_t completed = 0;
    auto jobName = [&](std::size_t i) {
        return results[i].tag + "/" + results[i].benchmark;
    };
    for (std::size_t i = 0; i < total; ++i) {
        results.emplace_back(jobs[i]);
        const std::string why = refusal(jobs[i]);
        if (why.empty()) {
            results[i].error = "job was never executed";
            queue.push_back(i);
        } else {
            results[i].error = "job " + jobName(i) +
                               " cannot run in a worker process: " +
                               why;
            done[i] = 1;
            ++completed;
        }
    }
    if (queue.empty())
        return results;

    const int target = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(std::max(options_.workers, 1)),
        queue.size()));
    int respawns_left = options_.respawnBudget >= 0
                            ? options_.respawnBudget
                            : 2 * target + 2;

    std::vector<Proc> procs;

    auto spawnOne = [&]() -> bool {
        int sv[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
            event("socketpair failed; cannot spawn worker");
            return false;
        }
        const pid_t pid = ::fork();
        if (pid < 0) {
            ::close(sv[0]);
            ::close(sv[1]);
            event("fork failed; cannot spawn worker");
            return false;
        }
        if (pid == 0) {
            // Child: drop every parent-side descriptor so a dead
            // sibling's EOF is visible to the coordinator (an
            // inherited duplicate would hold its socket open).
            for (const Proc& p : procs) {
                if (p.alive())
                    ::close(p.fd);
            }
            ::close(sv[0]);
            if (options_.workerCommand.empty())
                ::_exit(workerMain(sv[1]));
            std::vector<std::string> args = options_.workerCommand;
            args.push_back("--worker-fd");
            args.push_back(std::to_string(sv[1]));
            std::vector<char*> argv;
            argv.reserve(args.size() + 1);
            for (std::string& a : args)
                argv.push_back(a.data());
            argv.push_back(nullptr);
            ::execvp(argv[0], argv.data());
            ::_exit(127);
        }
        ::close(sv[1]);
        Proc p;
        p.pid = pid;
        p.fd = sv[0];
        procs.push_back(p);
        event("spawned worker " + std::to_string(pid));
        return true;
    };

    // Reap the process and settle its in-flight shard: re-queue at
    // the front (so recovered shards run next), or fail the job
    // once its dispatch budget is spent.
    auto markDead = [&](Proc& p, const std::string& why) {
        const std::string pid = std::to_string(p.pid);
        if (p.job >= 0 && !done[static_cast<std::size_t>(p.job)]) {
            const auto j = static_cast<std::size_t>(p.job);
            if (attempts[j] >= options_.maxJobAttempts) {
                results[j].ok = false;
                results[j].error =
                    "worker died running this job " +
                    std::to_string(attempts[j]) +
                    " time(s) (last: " + why + ")";
                done[j] = 1;
                ++completed;
                event("worker " + pid + " died (" + why +
                      "); job " + jobName(j) + " failed after " +
                      std::to_string(attempts[j]) + " attempts");
            } else {
                queue.push_front(j);
                event("worker " + pid + " died (" + why +
                      "); re-queued " + jobName(j));
            }
        } else {
            event("worker " + pid + " exited (" + why + ")");
        }
        ::close(p.fd);
        p.fd = -1;
        p.job = -1;
        int status = 0;
        while (::waitpid(p.pid, &status, 0) < 0 && errno == EINTR) {
        }
        p.pid = -1;
    };

    // Handle one complete protocol line; false = corrupt stream
    // (the caller kills the worker, which re-queues its shard).
    auto processLine = [&](Proc& p,
                           const std::string& line) -> bool {
        serve::Json doc;
        std::pair<std::size_t, Outcome> reply;
        try {
            doc = serve::Json::parse(line);
            const serve::Json* op = doc.find("op");
            if (!op)
                return false;
            if (op->asString() == "hello") {
                p.ready = true;
                return true;
            }
            if (op->asString() != "result") {
                event("ignoring op '" + op->asString() +
                      "' from worker " + std::to_string(p.pid));
                return true;
            }
            reply = parseResult(doc);
        } catch (const std::exception& e) {
            event("corrupt message from worker " +
                  std::to_string(p.pid) + ": " + e.what());
            return false;
        }
        auto& [index, res] = reply;
        if (index >= total ||
            p.job != static_cast<std::ptrdiff_t>(index)) {
            // A reply for a job this worker doesn't hold means
            // the stream is desynchronized; killing the worker
            // re-queues its real shard.
            event("unexpected result for job " +
                  std::to_string(index) + " from worker " +
                  std::to_string(p.pid));
            return false;
        }
        Outcome& out = results[index];
        out.ok = res.ok;
        out.error = std::move(res.error);
        out.result = std::move(res.result);
        out.wallSeconds = res.wallSeconds;
        done[index] = 1;
        ++completed;
        p.job = -1;
        return true;
    };

    // Drain every complete line currently buffered; false on
    // protocol corruption.
    auto processBuffer = [&](Proc& p) -> bool {
        for (;;) {
            const std::size_t nl = p.buffer.find('\n');
            if (nl == std::string::npos)
                return true;
            const std::string line = p.buffer.substr(0, nl);
            p.buffer.erase(0, nl + 1);
            if (!line.empty() && !processLine(p, line))
                return false;
        }
    };

    for (int w = 0; w < target; ++w)
        spawnOne();

    while (completed < total) {
        // Dispatch to idle workers; retire them once the queue is
        // drained (remaining in-flight shards may still re-queue,
        // in which case the pool is respawned below).
        for (Proc& p : procs) {
            if (!p.alive() || !p.ready || p.job >= 0)
                continue;
            if (queue.empty()) {
                sendLine(p.fd, encodeShutdown());
                markDead(p, "retired");
                continue;
            }
            const std::size_t j = queue.front();
            queue.pop_front();
            p.job = static_cast<std::ptrdiff_t>(j);
            ++attempts[j];
            p.deadline =
                nowSeconds() + options_.jobTimeoutSeconds;
            event("dispatched " + jobName(j) + " to worker " +
                  std::to_string(p.pid));
            if (!sendLine(p.fd, encodeJob(j, jobs[j])))
                markDead(p, "send failed");
        }
        if (completed >= total)
            break;

        const std::size_t alive = static_cast<std::size_t>(
            std::count_if(procs.begin(), procs.end(),
                          [](const Proc& p) {
                              return p.alive();
                          }));
        if (alive == 0) {
            if (queue.empty()) {
                // No workers, nothing queued, yet jobs incomplete:
                // internal inconsistency. Fail what's left rather
                // than spin.
                for (std::size_t i = 0; i < total; ++i) {
                    if (done[i])
                        continue;
                    results[i].ok = false;
                    results[i].error =
                        "lost by the coordinator (internal "
                        "error)";
                    done[i] = 1;
                    ++completed;
                }
                break;
            }
            if (respawns_left <= 0) {
                while (!queue.empty()) {
                    const std::size_t j = queue.front();
                    queue.pop_front();
                    results[j].ok = false;
                    results[j].error =
                        "no workers available (respawn budget "
                        "exhausted)";
                    done[j] = 1;
                    ++completed;
                }
                event("respawn budget exhausted; failing "
                      "remaining shards");
                continue;
            }
            const int n = static_cast<int>(std::min<std::size_t>(
                static_cast<std::size_t>(target), queue.size()));
            event("pool is empty with " +
                  std::to_string(queue.size()) +
                  " shard(s) left; respawning " +
                  std::to_string(n) + " worker(s)");
            for (int w = 0; w < n && respawns_left > 0; ++w) {
                if (spawnOne())
                    --respawns_left;
                else
                    break;
            }
            continue;
        }

        // Poll every live worker; wake for the nearest deadline.
        std::vector<pollfd> fds;
        std::vector<std::size_t> owner;
        int timeout_ms = -1;
        const double now = nowSeconds();
        for (std::size_t i = 0; i < procs.size(); ++i) {
            const Proc& p = procs[i];
            if (!p.alive())
                continue;
            fds.push_back({p.fd, POLLIN, 0});
            owner.push_back(i);
            if (p.job >= 0 && options_.jobTimeoutSeconds > 0) {
                const double left =
                    std::max(0.0, p.deadline - now) * 1000.0;
                const int ms = static_cast<int>(left) + 1;
                timeout_ms = timeout_ms < 0
                                 ? ms
                                 : std::min(timeout_ms, ms);
            }
        }
        const int rc =
            ::poll(fds.data(),
                   static_cast<nfds_t>(fds.size()), timeout_ms);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            fatal("fabric coordinator poll failed: errno ", errno);
        }

        for (std::size_t k = 0; k < fds.size(); ++k) {
            if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            Proc& p = procs[owner[k]];
            if (!p.alive())
                continue;
            char chunk[4096];
            const ssize_t n = ::read(p.fd, chunk, sizeof(chunk));
            if (n > 0) {
                p.buffer.append(chunk,
                                static_cast<std::size_t>(n));
                if (!processBuffer(p)) {
                    ::kill(p.pid, SIGKILL);
                    markDead(p, "protocol corruption");
                }
            } else if (n == 0) {
                // Drain results the worker flushed before dying
                // so a finished shard is never re-run.
                processBuffer(p);
                markDead(p, "connection closed");
            } else if (errno != EINTR && errno != EAGAIN) {
                markDead(p, "read failed");
            }
        }

        // Enforce job deadlines (hung-worker recovery): SIGKILL
        // and settle the shard through the death path.
        if (options_.jobTimeoutSeconds > 0) {
            const double after = nowSeconds();
            for (Proc& p : procs) {
                if (!p.alive() || p.job < 0 ||
                    after < p.deadline)
                    continue;
                event("job " +
                      jobName(static_cast<std::size_t>(p.job)) +
                      " exceeded " +
                      std::to_string(options_.jobTimeoutSeconds) +
                      "s; killing worker " +
                      std::to_string(p.pid));
                ::kill(p.pid, SIGKILL);
                markDead(p, "job timeout");
            }
        }
    }

    // Retire the pool. Idle workers get an orderly shutdown; a
    // worker still holding a (completed-elsewhere) shard is
    // killed.
    for (Proc& p : procs) {
        if (!p.alive())
            continue;
        if (p.job >= 0)
            ::kill(p.pid, SIGKILL);
        else
            sendLine(p.fd, encodeShutdown());
        p.job = -1;
        markDead(p, "pool shutdown");
    }
    return results;
}

} // namespace fabric
} // namespace tempest
