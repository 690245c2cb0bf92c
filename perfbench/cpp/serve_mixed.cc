/**
 * @file
 * serve_mixed: an in-process tempest_serve daemon (ServeDaemon, two
 * workers, warm pool on) driven open-loop by one client thread on a
 * few connections. The request schedule comes from the runner
 * script: a hot set primed during set-up, then seeded Poisson
 * arrivals that mostly repeat it (cache hits answered on the poll
 * thread) and sometimes name a fresh identity (a warm fork on a
 * worker).
 *
 * Schedule file lines:
 *   daemon <threads> <warmup_cycles> <connections>
 *   hot <request json>
 *   req <due seconds> <request json>
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <dirent.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "report.hh"
#include "serve/json.hh"
#include "serve/protocol.hh"
#include "serve/result_cache.hh"
#include "serve/server.hh"

namespace perfbench
{

namespace
{

using tempest::serve::Json;

constexpr int kSetupReps = 3;
const char* const kSocket = "perfbench-serve.sock";
/** Replies still missing this long after the last send time out. */
constexpr double kDrainSeconds = 60.0;
/**
 * The client spins instead of sleeping from this long before a due
 * time, so its own wake-up latency does not end up in the measured
 * latency.
 */
constexpr double kSpinBefore = 300e-6;

struct Schedule
{
    int threads = 2;
    std::uint64_t warmupCycles = 0;
    int connections = 1;
    std::vector<std::string> hot;
    struct Entry
    {
        double due = 0;
        std::string line;
    };
    std::vector<Entry> requests;
};

Schedule
readSchedule(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read schedule " + path);
    Schedule s;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string kind;
        fields >> kind;
        if (kind == "daemon") {
            fields >> s.threads >> s.warmupCycles >> s.connections;
        } else if (kind == "hot") {
            std::string rest;
            std::getline(fields >> std::ws, rest);
            s.hot.push_back(rest);
        } else if (kind == "req") {
            Schedule::Entry e;
            fields >> e.due;
            std::getline(fields >> std::ws, e.line);
            s.requests.push_back(std::move(e));
        }
    }
    if (s.hot.empty() || s.requests.empty())
        throw std::runtime_error("schedule has no requests");
    return s;
}

/** What the client saw of one request. */
struct Outcome
{
    double sent = -1;
    double recv = -1;
    bool ok = false;
    bool cached = false;
    double compute = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::string hash;
    std::string reply;
};

int
connectDaemon()
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, kSocket, sizeof(addr.sun_path) - 1);
    if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr)) != 0)
        throw std::runtime_error(std::string("connect: ") +
                                 std::strerror(errno));
    return fd;
}

void
sendLine(int fd, const std::string& line)
{
    const std::string data = line + "\n";
    std::size_t done = 0;
    while (done < data.size()) {
        const ssize_t n = ::send(fd, data.data() + done,
                                 data.size() - done, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            throw std::runtime_error("send failed");
        done += static_cast<std::size_t>(n);
    }
}

/** Line-framed reader over several client sockets. */
class Replies
{
  public:
    explicit Replies(std::vector<int> fds)
        : fds_(std::move(fds)), rx_(fds_.size())
    {}

    /**
     * Wait up to `timeout` seconds for readable sockets and hand
     * every complete reply line, with its arrival time, to `fn`.
     */
    template <typename Fn>
    void
    poll(double timeout, Fn&& fn)
    {
        std::vector<pollfd> pfds;
        for (const int fd : fds_)
            pfds.push_back(pollfd{fd, POLLIN, 0});
        timespec ts{};
        timeout = std::max(0.0, timeout);
        ts.tv_sec = static_cast<time_t>(timeout);
        ts.tv_nsec = static_cast<long>((timeout - ts.tv_sec) * 1e9);
        if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0)
            return;
        for (std::size_t i = 0; i < pfds.size(); ++i) {
            if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            char buf[65536];
            const ssize_t n = ::recv(fds_[i], buf, sizeof(buf), 0);
            const double t = now();
            if (n <= 0)
                throw std::runtime_error("daemon closed a connection");
            std::string& rx = rx_[i];
            rx.append(buf, static_cast<std::size_t>(n));
            std::size_t start = 0;
            for (std::size_t nl; (nl = rx.find('\n', start)) !=
                                 std::string::npos;
                 start = nl + 1)
                fn(rx.substr(start, nl - start), t);
            rx.erase(0, start);
        }
    }

    void
    close()
    {
        for (const int fd : fds_)
            ::close(fd);
        fds_.clear();
    }

  private:
    std::vector<int> fds_;
    std::vector<std::string> rx_;
};

/**
 * Record one reply line into the outcome its "id" names; keep the
 * line itself only if `keep_reply`.
 */
void
record(std::vector<Outcome>& outcomes, const std::string& line,
       double t, bool keep_reply = true)
{
    const Json doc = Json::parse(line);
    const Json* id = doc.find("id");
    if (!id)
        throw std::runtime_error("reply without id: " + line);
    const std::uint64_t i = id->asUnsigned();
    if (i >= outcomes.size() || outcomes[i].recv >= 0)
        throw std::runtime_error("unexpected reply: " + line);
    Outcome& o = outcomes[i];
    o.recv = t;
    if (keep_reply)
        o.reply = line;
    o.ok = doc.find("ok") && doc.find("ok")->asBool();
    if (!o.ok)
        return;
    o.cached = doc.find("cached")->asBool();
    o.compute = doc.find("wall_seconds")->asDouble();
    o.instructions = doc.find("instructions")->asUnsigned();
    o.cycles = doc.find("cycles")->asUnsigned();
    o.hash = doc.find("result_hash")->asString();
}

/** One synchronous request on its own connection. */
std::string
call(const std::string& line)
{
    const int fd = connectDaemon();
    Replies replies({fd});
    std::string reply;
    sendLine(fd, line);
    const double deadline = now() + kDrainSeconds;
    while (reply.empty() && now() < deadline)
        replies.poll(1.0, [&](const std::string& l, double) { reply = l; });
    replies.close();
    if (reply.empty())
        throw std::runtime_error("no reply to " + line);
    return reply;
}

/**
 * Start a daemon and compute the hot set through it, one request
 * at a time: concurrent warm-ups made set-up time and peak RSS
 * depend on how the two workers' builds happened to overlap.
 */
std::unique_ptr<tempest::serve::ServeDaemon>
startAndPrime(const Schedule& s, std::vector<Outcome>& hot)
{
    tempest::serve::ServeOptions opts;
    opts.socketPath = kSocket;
    opts.threads = s.threads;
    opts.warmupCycles = s.warmupCycles;
    auto daemon = std::make_unique<tempest::serve::ServeDaemon>(opts);
    daemon->start();
    hot.assign(s.hot.size(), Outcome{});
    for (const std::string& line : s.hot)
        record(hot, call(line), now());
    return daemon;
}

/** Thread ids of this process, ascending. */
std::vector<int>
threadIds()
{
    std::vector<int> tids;
    DIR* dir = ::opendir("/proc/self/task");
    if (!dir)
        throw std::runtime_error("cannot list /proc/self/task");
    while (const dirent* e = ::readdir(dir)) {
        if (e->d_name[0] != '.')
            tids.push_back(std::atoi(e->d_name));
    }
    ::closedir(dir);
    std::sort(tids.begin(), tids.end());
    return tids;
}

/**
 * Put the client thread and the daemon's poll thread on one CPU and
 * the workers on the others. A cache hit then travels between two
 * threads of one CPU, which never idles in between. Across CPUs,
 * each hop woke an idle virtual CPU, which took ~100 us of a
 * ~250 us hit and followed the host's load rather than the program.
 * Needs three CPUs; with fewer, every thread stays unpinned.
 */
void
colocateClient()
{
    std::vector<int> cpus = usableCpus();
    if (cpus.size() < 3)
        return;
    const int shared = cpus.back();
    cpus.pop_back();
    // Every thread but this one is the daemon's. ServeDaemon::start
    // creates the poll thread first, then the workers, so the poll
    // thread has the lowest id.
    const int self = static_cast<int>(::gettid());
    bool poll_thread = true;
    for (const int tid : threadIds()) {
        if (tid == self)
            continue;
        pinThread(tid, poll_thread ? std::vector<int>{shared} : cpus);
        poll_thread = false;
    }
    pinThread(self, {shared});
}

struct Codec
{
    double parseUs = 0;
    double identityUs = 0;
    double cacheGetUs = 0;
    double dumpUs = 0;
};

/**
 * The serve layer's request path, replayed on this workload's own
 * request lines and replies: parseRequest, canonicalRunIdentity,
 * ResultCache::get against the primed hot set, and Json::dump.
 */
Codec
replayCodec(const Schedule& s, const std::vector<Outcome>& hot,
            const std::vector<Outcome>& window)
{
    namespace sv = tempest::serve;
    sv::ResultCache cache(512);
    for (std::size_t h = 0; h < s.hot.size(); ++h) {
        sv::CachedResult r;
        r.payload = Json::parse(hot[h].reply);
        cache.put(sv::canonicalRunIdentity(sv::parseRequest(s.hot[h])),
                  std::move(r));
    }
    std::vector<Json> replies;
    for (const Outcome& o : window) {
        if (!o.reply.empty())
            replies.push_back(Json::parse(o.reply));
    }
    const double n = static_cast<double>(s.requests.size());
    std::vector<double> parse, identity, get, dump;
    std::size_t sink = 0;
    for (int rep = 0; rep < 5; ++rep) {
        std::vector<sv::Request> reqs;
        reqs.reserve(s.requests.size());
        double t0 = now();
        for (const Schedule::Entry& e : s.requests)
            reqs.push_back(sv::parseRequest(e.line));
        parse.push_back((now() - t0) / n);
        std::vector<std::string> keys;
        keys.reserve(reqs.size());
        t0 = now();
        for (const sv::Request& r : reqs)
            keys.push_back(sv::canonicalRunIdentity(r));
        identity.push_back((now() - t0) / n);
        t0 = now();
        for (const std::string& k : keys)
            sink += cache.get(k).has_value();
        get.push_back((now() - t0) / n);
        t0 = now();
        for (const Json& j : replies)
            sink += j.dump().size();
        dump.push_back((now() - t0) / static_cast<double>(replies.size()));
    }
    if (sink == 0)
        throw std::runtime_error("codec replay did no work");
    return {median(parse) * 1e6, median(identity) * 1e6,
            median(get) * 1e6, median(dump) * 1e6};
}

std::string
outcomesJson(const std::vector<Outcome>& outcomes, double origin)
{
    auto column = [&](auto field) {
        std::vector<double> v;
        for (const Outcome& o : outcomes)
            v.push_back(field(o));
        return v;
    };
    std::string hashes = "[";
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (i)
            hashes += ',';
        hashes += jsonString(outcomes[i].hash);
    }
    JsonOut j;
    j.nums("sent", column([&](const Outcome& o) {
         return o.sent < 0 ? -1.0 : o.sent - origin;
     }))
        .nums("recv", column([&](const Outcome& o) {
            return o.recv < 0 ? -1.0 : o.recv - origin;
        }))
        .nums("ok", column([](const Outcome& o) { return o.ok ? 1.0 : 0.0; }))
        .nums("cached",
              column([](const Outcome& o) { return o.cached ? 1.0 : 0.0; }))
        .nums("compute", column([](const Outcome& o) { return o.compute; }))
        .nums("instructions", column([](const Outcome& o) {
            return static_cast<double>(o.instructions);
        }))
        .nums("cycles", column([](const Outcome& o) {
            return static_cast<double>(o.cycles);
        }))
        .raw("hash", hashes + "]");
    return j.done();
}

} // namespace

int
runServeMixed(const Args& args)
{
    const Schedule s = readSchedule(args.schedule);

    // Set-up: start the daemon and prime the hot set (which builds
    // the warm snapshots), several times; the last daemon serves
    // the window. Hot hashes must repeat exactly.
    std::vector<double> setup;
    std::vector<Outcome> hot;
    std::vector<std::string> hot_hashes;
    bool setup_ok = true;
    std::unique_ptr<tempest::serve::ServeDaemon> daemon;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        if (daemon)
            daemon->stop();
        const double t0 = now();
        daemon = startAndPrime(s, hot);
        setup.push_back(now() - t0);
        for (std::size_t h = 0; h < hot.size(); ++h) {
            if (!hot[h].ok)
                setup_ok = false;
            if (rep == 0)
                hot_hashes.push_back(hot[h].hash);
            else if (hot[h].hash != hot_hashes[h])
                setup_ok = false;
        }
    }
    colocateClient();
    const std::string stats_before = call(R"({"op":"stats"})");

    std::vector<int> fds;
    for (int c = 0; c < s.connections; ++c)
        fds.push_back(connectDaemon());
    Replies replies(fds);
    std::vector<Outcome> window(s.requests.size());
    // Wake on time: the default 50 us timer slack would show up as
    // generator lateness.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const double origin = now() + 0.05;
    const double last_due = origin + s.requests.back().due;
    std::size_t next = 0;
    std::size_t received = 0;
    auto on_reply = [&](const std::string& line, double t) {
        // Replies are only replayed by the traced run; untraced, the
        // client keeps no copy, so peak RSS stays the daemon's.
        record(window, line, t, args.trace);
        ++received;
    };
    while (received < window.size()) {
        const double t = now();
        if (next < window.size() && t >= origin + s.requests[next].due) {
            sendLine(fds[next % fds.size()], s.requests[next].line);
            window[next].sent = now();
            ++next;
            continue;
        }
        if (next == window.size() && t > last_due + kDrainSeconds)
            break;
        const double wake =
            next < window.size()
                ? origin + s.requests[next].due - kSpinBefore
                : last_due + kDrainSeconds;
        replies.poll(t >= wake ? 0.0 : wake - t, on_reply);
    }
    double window_end = origin;
    for (const Outcome& o : window)
        window_end = std::max(window_end, o.recv);
    replies.close();
    const double window_s = window_end - origin;
    const std::string stats_after = call(R"({"op":"stats"})");
    daemon->stop();

    JsonOut out;
    out.str("workload", "serve_mixed")
        .nums("setup_s", setup)
        .boolean("setup_ok", setup_ok)
        .raw("stats_before", stats_before)
        .raw("stats_after", stats_after)
        .raw("hot", outcomesJson(hot, origin))
        .raw("window", outcomesJson(window, origin));

    if (args.trace) {
        // Client spans: one per request from its due time, split by
        // the reply's cached flag; the reply's wall_seconds is the
        // compute child, placed at the end of the wait.
        SpanLog log;
        const double t0 = now();
        for (std::size_t i = 0; i < window.size(); ++i) {
            const Outcome& o = window[i];
            if (o.recv < 0)
                continue;
            const double due = origin + s.requests[i].due;
            const int span =
                log.add(o.cached ? "serve.hit" : "serve.miss", due,
                        o.recv, i);
            if (o.compute > 0)
                log.add("serve.compute", o.recv - o.compute, o.recv, i,
                        span);
        }
        const double span_s = now() - t0;
        log.writeChromeTrace(args.traceOut);
        const Codec codec = replayCodec(s, hot, window);
        out.num("trace_overhead", span_s / window_s)
            .num("parse_us", codec.parseUs)
            .num("identity_us", codec.identityUs)
            .num("cache_get_us", codec.cacheGetUs)
            .num("reply_dump_us", codec.dumpUs);
    }
    out.num("peak_rss_kb", peakRssKb());
    std::printf("%s\n", out.done().c_str());
    return 0;
}

} // namespace perfbench
