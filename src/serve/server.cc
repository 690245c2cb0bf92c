#include "serve/server.hh"

#include <chrono>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/log.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "sim/sim_config_io.hh"

namespace tempest
{
namespace serve
{

namespace
{

/** Max buffered bytes without a newline before a connection is
 * considered hostile and dropped. */
constexpr std::size_t kMaxLineBytes = 1 << 20;

/** Max unsent reply bytes per connection. A peer that issues
 * requests but never reads its socket hits this cap and is
 * dropped — the mirror image of the kMaxLineBytes defense. */
constexpr std::size_t kMaxOutboxBytes = 1 << 20;

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/**
 * Warm identity: the request's config with every DTM technique
 * neutralized (the warm-fork discipline — no technique-specific
 * state may leak into the snapshot) plus the fields the warm-up
 * trajectory depends on. Requests that differ only in DTM
 * technique settings share one warm snapshot, which is exactly
 * the sweep access pattern.
 */
Config
neutralWarmConfig(const Config& request_config)
{
    Config warm = request_config;
    warm.setBool("dtm.toggling", false);
    warm.setBool("dtm.alu_turnoff", false);
    warm.setBool("dtm.regfile_turnoff", false);
    warm.setBool("dtm.round_robin", false);
    warm.setBool("dtm.fetch_throttling", false);
    warm.set("dtm.mapping", "priority");
    return warm;
}

} // namespace

ServeDaemon::ServeDaemon(ServeOptions options)
    : options_(std::move(options)),
      cache_(options_.cacheCapacity),
      throttler_(options_.ratePerSecond, options_.rateBurst)
{
    if (options_.threads <= 0)
        options_.threads = 1;
    if (options_.queueDepth == 0)
        options_.queueDepth = 1;
    startTick_ =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            // det:allow(serving-layer clock for rate limiting; never feeds simulation state)
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
}

ServeDaemon::~ServeDaemon()
{
    stop();
}

double
ServeDaemon::nowSeconds() const
{
    const std::int64_t tick =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            // det:allow(serving-layer clock for rate limiting; never feeds simulation state)
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    return static_cast<double>(tick - startTick_) * 1e-9;
}

void
ServeDaemon::start()
{
    if (started_)
        fatal("serve daemon already started");
    if (options_.socketPath.empty())
        fatal("serve daemon needs a socket path");

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socketPath.size() >= sizeof(addr.sun_path)) {
        fatal("socket path '", options_.socketPath,
              "' is too long for AF_UNIX (max ",
              sizeof(addr.sun_path) - 1, " bytes)");
    }
    std::memcpy(addr.sun_path, options_.socketPath.c_str(),
                options_.socketPath.size() + 1);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        fatal("cannot create socket: ", std::strerror(errno));
    // A stale socket file from a crashed daemon would make bind
    // fail; remove it (connect() on a live daemon's path would
    // still have worked, so this only recycles dead paths in
    // practice — a supervising script owns exclusivity).
    ::unlink(options_.socketPath.c_str());
    if (::bind(listenFd_,
               reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
        fatal("cannot bind '", options_.socketPath,
              "': ", std::strerror(errno));
    }
    if (::listen(listenFd_, 64) != 0)
        fatal("cannot listen: ", std::strerror(errno));
    if (::pipe(wakePipe_) != 0)
        fatal("cannot create wake pipe: ",
              std::strerror(errno));
    // The poll thread must never block on I/O: the listener, the
    // wake pipe, and every accepted fd are non-blocking.
    setNonBlocking(listenFd_);
    setNonBlocking(wakePipe_[0]);
    setNonBlocking(wakePipe_[1]);

    started_ = true;
    stopping_.store(false, std::memory_order_release);
    pollThread_ = std::thread([this] { pollLoop(); });
    workers_.reserve(static_cast<std::size_t>(options_.threads));
    for (int t = 0; t < options_.threads; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

void
ServeDaemon::requestStop()
{
    stopping_.store(true, std::memory_order_release);
    if (wakePipe_[1] >= 0) {
        const char byte = 'q';
        [[maybe_unused]] const ssize_t n =
            ::write(wakePipe_[1], &byte, 1);
    }
    queueCv_.notify_all();
    stopCv_.notify_all();
}

void
ServeDaemon::waitStopped()
{
    MutexLock lock(stopMutex_);
    // The predicate only reads the stopping_ atomic (no guarded
    // state), so the lambda is lock-discipline clean.
    stopCv_.wait(lock.native(), [this] {
        return stopping_.load(std::memory_order_acquire);
    });
}

void
ServeDaemon::stop()
{
    if (!started_)
        return;
    requestStop();
    if (pollThread_.joinable())
        pollThread_.join();
    for (std::thread& t : workers_) {
        if (t.joinable())
            t.join();
    }
    workers_.clear();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    for (int& fd : wakePipe_) {
        if (fd >= 0) {
            ::close(fd);
            fd = -1;
        }
    }
    conns_.clear();
    ::unlink(options_.socketPath.c_str());
    started_ = false;
}

ServeStats
ServeDaemon::stats() const
{
    ServeStats s;
    s.cache = cache_.stats();
    {
        MutexLock lock(queueMutex_);
        s.queueDepth = queue_.size();
        s.shedQueueFull = shedQueueFull_;
        s.jobsDone = jobsDone_;
        s.jobsFailed = jobsFailed_;
        s.computeSecondsTotal = computeSecondsTotal_;
    }
    s.queueCapacity = options_.queueDepth;
    s.rateLimited = throttler_.rejected();
    s.warmPoolSize = warmPool_.size();
    s.warmBuilds = warmPool_.builds();
    return s;
}

// ---------------------------------------------------------------
// Poll thread
// ---------------------------------------------------------------

void
ServeDaemon::pollLoop()
{
    while (!stopping_.load(std::memory_order_acquire)) {
        std::vector<pollfd> fds;
        std::vector<int> doomed;
        fds.reserve(conns_.size() + 2);
        fds.push_back(pollfd{listenFd_, POLLIN, 0});
        fds.push_back(pollfd{wakePipe_[0], POLLIN, 0});
        for (const auto& [fd, conn] : conns_) {
            short events = POLLIN;
            {
                MutexLock lock(conn->writeMutex);
                if (conn->broken) {
                    // Write side gave up on this peer (outbox
                    // overflow or send error); reap it here.
                    doomed.push_back(fd);
                    continue;
                }
                if (!conn->tx.empty())
                    events |= POLLOUT;
                conn->wakeQueued = false;
            }
            fds.push_back(pollfd{fd, events, 0});
        }
        for (const int fd : doomed) {
            const auto it = conns_.find(fd);
            if (it == conns_.end())
                continue;
            {
                MutexLock lock(it->second->writeMutex);
                ::close(it->second->sock);
                it->second->sock = -1;
            }
            conns_.erase(it);
        }

        const int ready =
            ::poll(fds.data(),
                   static_cast<nfds_t>(fds.size()), -1);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            warn("serve poll failed: ", std::strerror(errno));
            break;
        }
        // Wake pipe: a 'q' byte (requestStop(), or the signal
        // handler via wakeFd()) is a stop request; 'w' bytes just
        // force a fresh round so new outbox data gets POLLOUT.
        bool stopByte = false;
        if (fds[1].revents & POLLIN) {
            char buf[64];
            for (;;) {
                const ssize_t n =
                    ::read(wakePipe_[0], buf, sizeof(buf));
                if (n <= 0)
                    break;
                for (ssize_t i = 0; i < n; ++i) {
                    if (buf[i] == 'q')
                        stopByte = true;
                }
                if (n < static_cast<ssize_t>(sizeof(buf)))
                    break;
            }
        }
        if (stopByte) {
            // Idempotent if requestStop() already ran; this is
            // the path that turns a signal into a stop.
            requestStop();
            break;
        }
        if (stopping_.load(std::memory_order_acquire))
            break;
        if (fds[0].revents & POLLIN)
            acceptOne();
        for (std::size_t i = 2; i < fds.size(); ++i) {
            if (fds[i].revents & POLLOUT) {
                const auto it = conns_.find(fds[i].fd);
                if (it != conns_.end()) {
                    MutexLock lock(it->second->writeMutex);
                    flushLocked(*it->second);
                }
            }
            if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
                const auto it = conns_.find(fds[i].fd);
                if (it != conns_.end())
                    readFrom(it->second);
            }
        }
    }
    // Close client fds so blocked peers see EOF promptly.
    for (auto& [fd, conn] : conns_) {
        MutexLock lock(conn->writeMutex);
        ::close(conn->sock);
        conn->sock = -1;
    }
}

void
ServeDaemon::acceptOne()
{
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0)
        return;
    auto conn = std::make_shared<Connection>();
    setNonBlocking(fd);
    {
        // No other thread can see this connection yet, but sock
        // is guarded state — take the (uncontended) lock so the
        // write is provably disciplined.
        MutexLock lock(conn->writeMutex);
        conn->sock = fd;
    }
    conn->name = "conn" + std::to_string(connCounter_++);
    conns_[fd] = std::move(conn);
}

void
ServeDaemon::readFrom(const ConnPtr& conn)
{
    // Snapshot the socket under the lock (the poll thread is the
    // only writer of sock, but discipline is cheaper than the
    // exception). recv() itself runs off-lock so a worker
    // flushing replies is never blocked behind a slow read.
    int sock = -1;
    {
        MutexLock lock(conn->writeMutex);
        sock = conn->sock;
    }
    if (sock < 0)
        return;
    char buf[65536];
    const ssize_t n = ::recv(sock, buf, sizeof(buf), 0);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                  errno == EINTR)) {
        return; // spurious wakeup on a non-blocking fd
    }
    if (n <= 0) {
        // EOF or error: forget the connection. Workers holding
        // the ConnPtr will notice `broken`/closed fd on write.
        {
            MutexLock lock(conn->writeMutex);
            ::close(conn->sock);
            conn->sock = -1;
        }
        conns_.erase(sock);
        return;
    }
    conn->rx.append(buf, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
        const std::size_t nl = conn->rx.find('\n', start);
        if (nl == std::string::npos)
            break;
        std::string line =
            conn->rx.substr(start, nl - start);
        start = nl + 1;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (!line.empty())
            handleLine(conn, line);
        if (stopping_.load(std::memory_order_acquire))
            break;
    }
    conn->rx.erase(0, start);
    if (conn->rx.size() > kMaxLineBytes) {
        sendLine(conn,
                 encodeError("request line exceeds 1 MiB"));
        {
            MutexLock lock(conn->writeMutex);
            ::close(conn->sock);
            conn->sock = -1;
        }
        conns_.erase(sock);
    }
}

void
ServeDaemon::handleLine(const ConnPtr& conn,
                        const std::string& line)
{
    Request req;
    Json id;
    try {
        const Json doc = Json::parse(line);
        if (const Json* reqId = doc.find("id"))
            id = *reqId;
        req = parseRequest(line);
    } catch (const FatalError& e) {
        Json reply = Json::parse(encodeError(e.what()));
        if (!id.isNull())
            reply["id"] = id;
        sendLine(conn, reply.dump());
        return;
    }
    switch (req.op) {
      case RequestOp::Ping: {
        Json reply = Json::parse(encodeOk("ping"));
        if (!id.isNull())
            reply["id"] = id;
        sendLine(conn, reply.dump());
        return;
      }
      case RequestOp::Stats: {
        Json reply = Json::parse(statsReply());
        if (!id.isNull())
            reply["id"] = id;
        sendLine(conn, reply.dump());
        return;
      }
      case RequestOp::Shutdown: {
        Json reply = Json::parse(encodeOk("shutdown"));
        if (!id.isNull())
            reply["id"] = id;
        sendLine(conn, reply.dump());
        requestStop();
        return;
      }
      case RequestOp::Run:
        handleRun(conn, std::move(req), id);
        return;
    }
}

std::string
ServeDaemon::statsReply() const
{
    const ServeStats s = stats();
    Json reply;
    reply["ok"] = Json(true);
    reply["op"] = Json("stats");
    Json cache;
    cache["hits"] = Json(s.cache.hits);
    cache["misses"] = Json(s.cache.misses);
    cache["evictions"] = Json(s.cache.evictions);
    cache["entries"] =
        Json(static_cast<std::uint64_t>(s.cache.entries));
    cache["capacity"] =
        Json(static_cast<std::uint64_t>(s.cache.capacity));
    cache["hit_rate"] = Json(s.cache.hitRate());
    reply["cache"] = cache;
    reply["queue_depth"] =
        Json(static_cast<std::uint64_t>(s.queueDepth));
    reply["queue_capacity"] =
        Json(static_cast<std::uint64_t>(s.queueCapacity));
    reply["shed_queue_full"] = Json(s.shedQueueFull);
    reply["rate_limited"] = Json(s.rateLimited);
    reply["jobs_done"] = Json(s.jobsDone);
    reply["jobs_failed"] = Json(s.jobsFailed);
    reply["compute_seconds_total"] =
        Json(s.computeSecondsTotal);
    reply["warm_pool_size"] =
        Json(static_cast<std::uint64_t>(s.warmPoolSize));
    reply["warm_builds"] = Json(s.warmBuilds);
    reply["threads"] = Json(options_.threads);
    reply["warmup_cycles"] = Json(options_.warmupCycles);
    return reply.dump();
}

void
ServeDaemon::handleRun(const ConnPtr& conn, Request req,
                       const Json& id)
{
    if (req.cycles > options_.maxRequestCycles) {
        Json reply = Json::parse(encodeError(
            "cycles " + std::to_string(req.cycles) +
            " exceeds the per-request limit of " +
            std::to_string(options_.maxRequestCycles)));
        if (!id.isNull())
            reply["id"] = id;
        sendLine(conn, reply.dump());
        return;
    }

    // The execution mode is part of the result identity: a warm
    // fork measures `cycles` after a shared warm-up, a cold run
    // measures from cycle 0, and the two are different (equally
    // deterministic) simulations.
    const bool warm =
        req.warm && options_.warmupCycles > 0;
    std::string key = canonicalRunIdentity(req);
    key += "warm=" +
           std::to_string(warm ? options_.warmupCycles : 0) +
           "\n";

    if (auto hit = cache_.get(key)) {
        Json reply = hit->payload;
        reply["ok"] = Json(true);
        reply["op"] = Json("run");
        reply["cached"] = Json(true);
        reply["wall_seconds"] = Json(0.0);
        if (!id.isNull())
            reply["id"] = id;
        sendLine(conn, reply.dump());
        return;
    }

    const std::string client =
        req.client.empty() ? conn->name : req.client;
    const AdmitDecision admit =
        throttler_.acquire(client, nowSeconds());
    if (!admit.admitted) {
        Json reply = Json::parse(encodeError(
            "rate limit exceeded for client '" + client + "'",
            admit.retryAfter));
        if (!id.isNull())
            reply["id"] = id;
        sendLine(conn, reply.dump());
        return;
    }

    Job job;
    job.conn = conn;
    job.req = std::move(req);
    job.key = std::move(key);
    job.id = id;
    {
        MutexLock lock(queueMutex_);
        const auto flight = inflight_.find(job.key);
        if (flight != inflight_.end()) {
            // Single-flight: attach to the in-progress
            // computation instead of queueing a duplicate.
            flight->second.push_back(std::move(job));
            return;
        }
        if (queue_.size() >= options_.queueDepth) {
            ++shedQueueFull_;
            // Estimate how long a queue slot takes to free up:
            // observed mean compute time, or a conservative
            // default before any job finished.
            const double mean =
                jobsDone_ > 0
                    ? computeSecondsTotal_ /
                          static_cast<double>(jobsDone_)
                    : 0.25;
            lock.unlock();
            Json reply = Json::parse(encodeError(
                "queue full (" +
                    std::to_string(options_.queueDepth) +
                    " pending)",
                mean));
            if (!id.isNull())
                reply["id"] = id;
            sendLine(conn, reply.dump());
            return;
        }
        inflight_[job.key] = {};
        queue_.push_back(std::move(job));
    }
    queueCv_.notify_one();
}

// ---------------------------------------------------------------
// Workers
// ---------------------------------------------------------------

void
ServeDaemon::workerLoop()
{
    for (;;) {
        Job job;
        {
            MutexLock lock(queueMutex_);
            // An explicit predicate loop instead of the lambda
            // form: clang's thread-safety analysis treats lambda
            // bodies as separate unannotated functions, so
            // touching queue_ inside one would defeat the
            // GUARDED_BY proof. wait() unlocks and relocks
            // lock.native(), so queue_ is held at every read.
            while (!stopping_.load(
                       std::memory_order_acquire) &&
                   queue_.empty()) {
                queueCv_.wait(lock.native());
            }
            if (stopping_.load(std::memory_order_acquire))
                return;
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        computeJob(job);
    }
}

void
ServeDaemon::computeJob(const Job& job)
{
    const Request& req = job.req;
    const double t0 = nowSeconds();
    Json payload;
    std::string error;
    std::uint64_t hash = 0;
    try {
        const SimConfig config =
            simConfigFromConfig(req.config);
        const bool warm =
            req.warm && options_.warmupCycles > 0;
        SimResult result;
        if (warm) {
            const Config warm_cfg =
                neutralWarmConfig(req.config);
            const std::string warm_key =
                req.benchmark + "\n" + hexU64(req.seed) +
                "\n" +
                std::to_string(options_.warmupCycles) + "\n" +
                warm_cfg.render();
            const std::shared_ptr<const std::string> snap =
                warmPool_.get(warm_key, [&] {
                    return experiments::warmSnapshot(
                        simConfigFromConfig(warm_cfg),
                        req.benchmark, req.seed,
                        options_.warmupCycles);
                });
            result = experiments::runFromSnapshot(
                config, req.benchmark, req.seed, *snap,
                req.cycles);
        } else {
            // One runJob job, like every other simulation.
            result = experiments::runBenchmark(config, req.benchmark,
                                               req.cycles);
        }
        hash = experiments::hashSimResult(result);
        payload["benchmark"] = Json(result.benchmark);
        payload["seed"] = Json(hexU64(req.seed));
        payload["result_hash"] = Json(hexU64(hash));
        payload["ipc"] = Json(result.ipc);
        payload["cycles"] = Json(result.cycles);
        payload["instructions"] = Json(result.instructions);
        payload["stall_cycles"] = Json(result.stallCycles);
        payload["warm"] = Json(warm);
    } catch (const std::exception& e) {
        error = e.what();
    } catch (...) {
        error = "unknown exception";
    }
    const double seconds = nowSeconds() - t0;

    // Publish to the cache BEFORE dropping the single-flight
    // entry: once inflight_ no longer holds this key, an
    // identical request must find the cache populated, or a
    // duplicate arriving in the gap would recompute the whole
    // simulation.
    if (error.empty()) {
        CachedResult cached;
        cached.resultHash = hash;
        cached.payload = payload;
        cached.computeSeconds = seconds;
        cache_.put(job.key, std::move(cached));
    }

    std::vector<Job> waiters;
    {
        MutexLock lock(queueMutex_);
        if (error.empty()) {
            ++jobsDone_;
            computeSecondsTotal_ += seconds;
        } else {
            ++jobsFailed_;
        }
        const auto it = inflight_.find(job.key);
        if (it != inflight_.end()) {
            waiters = std::move(it->second);
            inflight_.erase(it);
        }
    }

    auto replyTo = [&](const Job& target, bool coalesced) {
        Json reply;
        if (error.empty()) {
            reply = payload;
            reply["ok"] = Json(true);
            reply["op"] = Json("run");
            reply["cached"] = Json(coalesced);
            reply["wall_seconds"] =
                Json(coalesced ? 0.0 : seconds);
        } else {
            reply = Json::parse(encodeError(error));
        }
        if (!target.id.isNull())
            reply["id"] = target.id;
        sendLine(target.conn, reply.dump());
    };
    replyTo(job, false);
    for (const Job& waiter : waiters)
        replyTo(waiter, true);
}

void
ServeDaemon::sendLine(const ConnPtr& conn,
                      const std::string& line)
{
    bool needWake = false;
    {
        MutexLock lock(conn->writeMutex);
        if (conn->sock < 0 || conn->broken)
            return;
        if (conn->tx.size() + line.size() + 1 >
            kMaxOutboxBytes) {
            // The peer keeps sending requests without reading
            // replies; dropping it bounds our memory, exactly
            // like kMaxLineBytes bounds the read side.
            conn->broken = true;
            conn->tx.clear();
        } else {
            conn->tx += line;
            conn->tx += '\n';
            flushLocked(*conn);
        }
        // Broken conns need the poll thread to reap them;
        // residual bytes need it to arm POLLOUT. One queued
        // wake per connection is enough either way.
        if ((conn->broken || !conn->tx.empty()) &&
            !conn->wakeQueued) {
            conn->wakeQueued = true;
            needWake = true;
        }
    }
    if (needWake && wakePipe_[1] >= 0) {
        const char byte = 'w';
        [[maybe_unused]] const ssize_t n =
            ::write(wakePipe_[1], &byte, 1);
    }
}

void
ServeDaemon::flushLocked(Connection& conn)
    REQUIRES(conn.writeMutex)
{
    if (conn.sock < 0 || conn.broken)
        return;
    while (!conn.tx.empty()) {
        const ssize_t n =
            ::send(conn.sock, conn.tx.data(), conn.tx.size(),
                   MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
            conn.tx.erase(0, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 &&
            (errno == EAGAIN || errno == EWOULDBLOCK)) {
            return; // kernel buffer full; POLLOUT resumes us
        }
        if (n < 0 && errno == EINTR)
            continue;
        // Peer vanished; mark so later replies are dropped
        // without log spam.
        conn.broken = true;
        conn.tx.clear();
        return;
    }
}

} // namespace serve
} // namespace tempest
