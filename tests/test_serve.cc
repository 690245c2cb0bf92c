/**
 * @file
 * tempest_serve subsystem tests (DESIGN.md §13).
 *
 * Component level: the JSON codec round-trips the protocol types
 * (with 64-bit integers intact and deterministic key order), the
 * request parser enforces the protocol contract, the result cache
 * is a correct bounded LRU, the token bucket sheds exactly when
 * its virtual-time budget says so, and the warm pool builds each
 * snapshot once no matter how many threads race for it.
 *
 * Daemon level (in-process, real sockets, real simulations at
 * smoke scale): a cold run and its cached replay return the same
 * result_hash; a *fresh* daemon recomputes the same hash — the
 * cache is provably transparent; identical concurrent cold
 * requests coalesce into one simulation (single-flight); an
 * over-limit client gets an explicit retry_after; shutdown joins
 * everything and removes the socket file.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/log.hh"
#include "serve/json.hh"
#include "serve/protocol.hh"
#include "serve/result_cache.hh"
#include "serve/server.hh"
#include "serve/throttler.hh"
#include "serve/warm_pool.hh"

namespace tempest
{
namespace serve
{
namespace
{

// ---------------------------------------------------------------
// Json
// ---------------------------------------------------------------

TEST(ServeJson, RoundTripsScalarsAndContainers)
{
    const Json doc = Json::parse(
        R"({"b":true,"n":null,"i":-7,"d":0.5,"s":"x\n\"y\"",)"
        R"("a":[1,2,3],"o":{"k":"v"}})");
    EXPECT_TRUE(doc.find("b")->asBool());
    EXPECT_TRUE(doc.find("n")->isNull());
    EXPECT_EQ(doc.find("i")->asInt(), -7);
    EXPECT_DOUBLE_EQ(doc.find("d")->asDouble(), 0.5);
    EXPECT_EQ(doc.find("s")->asString(), "x\n\"y\"");
    EXPECT_EQ(doc.find("a")->asArray().size(), 3u);
    EXPECT_EQ(
        doc.find("o")->asObject().at("k").asString(), "v");
    // dump() -> parse() -> dump() is a fixed point.
    EXPECT_EQ(Json::parse(doc.dump()).dump(), doc.dump());
}

TEST(ServeJson, PreservesLargeIntegersExactly)
{
    // Above 2^53 (a double-only number type would corrupt it)
    // but within int64, the wire integer range — full u64 values
    // (seeds, hashes) travel as hex strings, not numbers.
    const std::uint64_t big = 0x7edcba9876543210ull;
    Json v(big);
    EXPECT_EQ(v.asUnsigned(), big);
    const Json back = Json::parse(v.dump());
    EXPECT_EQ(back.asUnsigned(), big);
}

TEST(ServeJson, DumpsObjectsInSortedKeyOrder)
{
    Json obj;
    obj["zeta"] = Json(1);
    obj["alpha"] = Json(2);
    EXPECT_EQ(obj.dump(), R"({"alpha":2,"zeta":1})");
}

TEST(ServeJson, RejectsMalformedInput)
{
    EXPECT_THROW(Json::parse("{"), FatalError);
    EXPECT_THROW(Json::parse("[1,]"), FatalError);
    EXPECT_THROW(Json::parse("{} trailing"), FatalError);
    EXPECT_THROW(Json::parse("\"\\ud800\""), FatalError);
    EXPECT_THROW(Json(1.5).asInt(), FatalError);
    EXPECT_THROW(Json(std::int64_t(-1)).asUnsigned(),
                 FatalError);
}

TEST(ServeJson, DeepNestingFailsTheParseNotTheStack)
{
    // A request line full of '[' fits under kMaxLineBytes but
    // would recurse once per byte: it must produce a parse error
    // (-> per-request error reply), not a stack overflow.
    EXPECT_THROW(Json::parse(std::string(100000, '[')),
                 FatalError);
    std::string objects;
    for (int i = 0; i < 100000; ++i)
        objects += R"({"k":)";
    EXPECT_THROW(Json::parse(objects), FatalError);
    // Balanced but over-limit nesting is rejected too...
    EXPECT_THROW(Json::parse(std::string(70, '[') +
                             std::string(70, ']')),
                 FatalError);
    // ...while any sane protocol document parses fine.
    const std::string ok =
        std::string(16, '[') + std::string(16, ']');
    EXPECT_EQ(Json::parse(ok).dump(), ok);
}

TEST(ServeJson, OverRangeNumbersDoNotSilentlyClamp)
{
    // strtoll saturates at INT64_MAX with ERANGE; the parser
    // must fall through to the double representation.
    const Json big = Json::parse("99999999999999999999");
    EXPECT_DOUBLE_EQ(big.asDouble(), 1e20);
    EXPECT_THROW(big.asInt(), FatalError);
    const Json neg = Json::parse("-99999999999999999999");
    EXPECT_DOUBLE_EQ(neg.asDouble(), -1e20);
    // Beyond double range there is nothing left to fall back to.
    EXPECT_THROW(Json::parse("1e999"), FatalError);
}

TEST(ServeJson, HugeUnsignedSerializesAsNonNegative)
{
    // > INT64_MAX: a wrapped int64 would dump a negative number.
    const std::uint64_t huge = 0xffffffffffffffffull;
    const Json v(huge);
    const std::string text = v.dump();
    EXPECT_EQ(text.find('-'), std::string::npos) << text;
    EXPECT_DOUBLE_EQ(Json::parse(text).asDouble(),
                     static_cast<double>(huge));
}

// ---------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------

TEST(ServeProtocol, ParsesRunRequest)
{
    const Request req = parseRequest(
        R"({"op":"run","benchmark":"eon","cycles":1000,)"
        R"("seed":9,"warm":false,"client":"c1",)"
        R"("config":{"dtm.toggling":"true"}})");
    EXPECT_EQ(req.op, RequestOp::Run);
    EXPECT_EQ(req.benchmark, "eon");
    EXPECT_EQ(req.cycles, 1000u);
    EXPECT_EQ(req.seed, 9u);
    EXPECT_FALSE(req.warm);
    EXPECT_EQ(req.client, "c1");
    EXPECT_TRUE(req.config.getBool("dtm.toggling", false));
    EXPECT_EQ(req.config.getInt("run.seed", 0), 9);
}

TEST(ServeProtocol, ExplicitConfigSeedWinsOverShorthand)
{
    const Request req = parseRequest(
        R"({"op":"run","benchmark":"eon","cycles":1,)"
        R"("seed":9,"config":{"run.seed":"42"}})");
    EXPECT_EQ(req.seed, 42u);
}

TEST(ServeProtocol, RejectsInvalidRequests)
{
    EXPECT_THROW(parseRequest("not json"), FatalError);
    EXPECT_THROW(parseRequest(R"({"op":"dance"})"),
                 FatalError);
    EXPECT_THROW(
        parseRequest(R"({"op":"run","cycles":10})"),
        FatalError); // no benchmark
    EXPECT_THROW(
        parseRequest(
            R"({"op":"run","benchmark":"eon","cycles":0})"),
        FatalError); // zero cycles
    EXPECT_THROW(
        parseRequest(
            R"({"op":"run","benchmark":"eon","cycles":-5})"),
        FatalError); // the tempest_run wrap bug, at the wire
}

TEST(ServeProtocol, CanonicalIdentityIsOrderInsensitive)
{
    const Request a = parseRequest(
        R"({"op":"run","benchmark":"eon","cycles":10,)"
        R"("seed":3,"config":{"dtm.toggling":"true",)"
        R"("thermal.ambient":"318.15"}})");
    const Request b = parseRequest(
        R"({"op":"run","benchmark":"eon","cycles":10,)"
        R"("config":{"thermal.ambient":"318.15",)"
        R"("run.seed":"3","dtm.toggling":"true"}})");
    EXPECT_EQ(canonicalRunIdentity(a),
              canonicalRunIdentity(b));
    // The client name is serving metadata, not identity.
    const Request c = parseRequest(
        R"({"op":"run","benchmark":"eon","cycles":10,)"
        R"("seed":3,"client":"someone-else",)"
        R"("config":{"dtm.toggling":"true",)"
        R"("thermal.ambient":"318.15"}})");
    EXPECT_EQ(canonicalRunIdentity(a),
              canonicalRunIdentity(c));
    // Cycles are identity.
    Request d = a;
    d.cycles = 11;
    EXPECT_NE(canonicalRunIdentity(a),
              canonicalRunIdentity(d));
}

TEST(ServeProtocol, EncodeRequestRoundTripsThroughParse)
{
    // encodeRequest is the C++ client half of the wire schema the
    // lint protocol-schema pass holds in lockstep with
    // parseRequest; this proves the lockstep is semantic, not just
    // syntactic: parse(encode(parse(line))) reproduces the request
    // field for field. The original goes through parseRequest so
    // it carries the normalized run.seed config entry.
    const Request req = parseRequest(
        R"({"op":"run","benchmark":"eon","cycles":123456,)"
        R"("seed":305419896,"warm":false,"client":"sweeper-7",)"
        R"("config":{"dtm.toggling":"true",)"
        R"("thermal.ambient":"318.15"}})");

    const Request back = parseRequest(encodeRequest(req));
    EXPECT_EQ(back.op, RequestOp::Run);
    EXPECT_EQ(back.client, req.client);
    EXPECT_EQ(back.benchmark, req.benchmark);
    EXPECT_EQ(back.cycles, req.cycles);
    EXPECT_EQ(back.seed, req.seed);
    EXPECT_EQ(back.warm, req.warm);
    EXPECT_TRUE(back.config.getBool("dtm.toggling", false));
    // The full config overlay survives verbatim.
    EXPECT_EQ(back.config.render(), req.config.render());
    // Same canonical identity: the encoded form names the same
    // deterministic simulation (and thus the same cache entry).
    EXPECT_EQ(canonicalRunIdentity(req),
              canonicalRunIdentity(back));

    // Non-run ops survive too.
    Request stats;
    stats.op = RequestOp::Stats;
    stats.client = "ops";
    const Request statsBack = parseRequest(encodeRequest(stats));
    EXPECT_EQ(statsBack.op, RequestOp::Stats);
    EXPECT_EQ(statsBack.client, "ops");
    Request ping;
    ping.op = RequestOp::Ping;
    EXPECT_EQ(parseRequest(encodeRequest(ping)).op,
              RequestOp::Ping);
    Request down;
    down.op = RequestOp::Shutdown;
    EXPECT_EQ(parseRequest(encodeRequest(down)).op,
              RequestOp::Shutdown);
}

// ---------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------

CachedResult
cached(std::uint64_t hash)
{
    CachedResult r;
    r.resultHash = hash;
    return r;
}

TEST(ServeResultCache, EvictsLeastRecentlyUsed)
{
    ResultCache cache(2);
    cache.put("a", cached(1));
    cache.put("b", cached(2));
    ASSERT_TRUE(cache.get("a")); // refresh a; b is now LRU
    cache.put("c", cached(3));   // evicts b
    EXPECT_TRUE(cache.get("a"));
    EXPECT_FALSE(cache.get("b"));
    EXPECT_TRUE(cache.get("c"));

    const CacheStats s = cache.stats();
    EXPECT_EQ(s.entries, 2u);
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.hits, 3u);
    EXPECT_EQ(s.misses, 1u);
}

TEST(ServeResultCache, PutRefreshesExistingKey)
{
    ResultCache cache(8);
    cache.put("k", cached(1));
    cache.put("k", cached(2));
    const auto hit = cache.get("k");
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit->resultHash, 2u);
    EXPECT_EQ(cache.stats().entries, 1u);
}

// ---------------------------------------------------------------
// Throttler (virtual time: fully deterministic)
// ---------------------------------------------------------------

TEST(ServeThrottler, BucketShedsAfterBurstAndRefills)
{
    TokenBucket bucket(/*rate=*/1.0, /*burst=*/2.0);
    EXPECT_TRUE(bucket.acquire(0.0).admitted);
    EXPECT_TRUE(bucket.acquire(0.0).admitted);
    const AdmitDecision shed = bucket.acquire(0.0);
    EXPECT_FALSE(shed.admitted);
    EXPECT_DOUBLE_EQ(shed.retryAfter, 1.0);
    // Waiting exactly retryAfter refills exactly one token.
    EXPECT_TRUE(bucket.acquire(shed.retryAfter).admitted);
    EXPECT_FALSE(bucket.acquire(shed.retryAfter).admitted);
}

TEST(ServeThrottler, ClientsAreIndependentPrincipals)
{
    ClientThrottler throttler(/*rate=*/1.0, /*burst=*/1.0);
    EXPECT_TRUE(throttler.acquire("a", 0.0).admitted);
    EXPECT_FALSE(throttler.acquire("a", 0.0).admitted);
    EXPECT_TRUE(throttler.acquire("b", 0.0).admitted);
    EXPECT_EQ(throttler.rejected(), 1u);
}

TEST(ServeThrottler, ZeroRateAdmitsEverything)
{
    ClientThrottler throttler(0.0, 0.0);
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(throttler.acquire("a", 0.0).admitted);
    EXPECT_EQ(throttler.rejected(), 0u);
}

// ---------------------------------------------------------------
// Warm pool
// ---------------------------------------------------------------

TEST(ServeWarmPool, BuildsOnceUnderContention)
{
    WarmSnapshotPool pool;
    std::atomic<int> builds{0};
    std::vector<std::thread> threads;
    std::atomic<bool> mismatch{false};
    threads.reserve(8);
    for (int i = 0; i < 8; ++i) {
        threads.emplace_back([&] {
            const auto snap = pool.get("key", [&] {
                builds.fetch_add(1);
                return std::string("snapshot-bytes");
            });
            if (*snap != "snapshot-bytes")
                mismatch.store(true);
        });
    }
    for (std::thread& t : threads)
        t.join();
    EXPECT_EQ(builds.load(), 1);
    EXPECT_FALSE(mismatch.load());
    EXPECT_EQ(pool.size(), 1u);
    EXPECT_EQ(pool.builds(), 1u);
}

TEST(ServeWarmPool, FailedBuildIsRetriable)
{
    WarmSnapshotPool pool;
    EXPECT_THROW(
        pool.get("key",
                 []() -> std::string {
                     fatal("builder exploded");
                 }),
        FatalError);
    // The failure was not cached: a later request retries.
    const auto snap =
        pool.get("key", [] { return std::string("ok"); });
    EXPECT_EQ(*snap, "ok");
    EXPECT_EQ(pool.builds(), 2u);
}

// ---------------------------------------------------------------
// Daemon end to end
// ---------------------------------------------------------------

/** Minimal blocking client: one connection, line in, line out. */
class TestClient
{
  public:
    explicit TestClient(const std::string& sock_path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0)
            fatal("client socket: no fd");
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path),
                      "%s", sock_path.c_str());
        if (::connect(fd_,
                      reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) != 0) {
            fatal("client connect failed");
        }
    }

    ~TestClient()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    /** Fire a framed line without reading a reply; false once
     * the daemon has dropped us. */
    bool sendOnly(const std::string& line)
    {
        std::string framed = line;
        framed += '\n';
        std::size_t sent = 0;
        while (sent < framed.size()) {
            const ssize_t n =
                ::send(fd_, framed.data() + sent,
                       framed.size() - sent, MSG_NOSIGNAL);
            if (n <= 0)
                return false;
            sent += static_cast<std::size_t>(n);
        }
        return true;
    }

    Json rpc(const std::string& line)
    {
        if (!sendOnly(line))
            fatal("client send failed");
        std::string reply;
        char c = 0;
        for (;;) {
            const ssize_t n = ::recv(fd_, &c, 1, 0);
            if (n <= 0)
                fatal("client recv failed");
            if (c == '\n')
                break;
            reply.push_back(c);
        }
        return Json::parse(reply);
    }

  private:
    int fd_ = -1;
};

std::string
tempSocketPath(const std::string& tag)
{
    // Short (AF_UNIX sun_path limit) and per-process unique.
    return "/tmp/tsrv_" + tag + "_" +
           std::to_string(::getpid()) + ".sock";
}

std::string
runLine(const std::string& extra = "")
{
    return R"({"op":"run","benchmark":"eon","cycles":200000,)"
           R"("seed":5)" +
           extra + "}";
}

TEST(ServeDaemonTest, CachedReplayAndFreshDaemonAgree)
{
    const std::string sock = tempSocketPath("replay");
    ServeOptions options;
    options.socketPath = sock;
    options.threads = 2;
    options.warmupCycles = 100'000;

    std::string cold_hash;
    std::string warm_flag_hash;
    {
        ServeDaemon daemon(options);
        daemon.start();
        TestClient client(sock);

        const Json cold = client.rpc(runLine());
        ASSERT_TRUE(cold.find("ok")->asBool())
            << cold.dump();
        EXPECT_FALSE(cold.find("cached")->asBool());
        cold_hash = cold.find("result_hash")->asString();

        const Json hot = client.rpc(runLine());
        ASSERT_TRUE(hot.find("ok")->asBool());
        EXPECT_TRUE(hot.find("cached")->asBool());
        EXPECT_EQ(hot.find("result_hash")->asString(),
                  cold_hash);

        // warm=false is a different simulation: same tuple,
        // different execution mode, so a different cache row.
        const Json cold_mode =
            client.rpc(runLine(R"(,"warm":false)"));
        ASSERT_TRUE(cold_mode.find("ok")->asBool());
        warm_flag_hash =
            cold_mode.find("result_hash")->asString();
        EXPECT_NE(warm_flag_hash, cold_hash);

        daemon.stop();
        EXPECT_FALSE(std::filesystem::exists(sock));
    }

    // A brand-new daemon (empty cache, empty warm pool) must
    // recompute bit-identical hashes for both modes.
    ServeDaemon daemon(options);
    daemon.start();
    TestClient client(sock);
    const Json again = client.rpc(runLine());
    ASSERT_TRUE(again.find("ok")->asBool());
    EXPECT_FALSE(again.find("cached")->asBool());
    EXPECT_EQ(again.find("result_hash")->asString(),
              cold_hash);
    const Json again_cold =
        client.rpc(runLine(R"(,"warm":false)"));
    EXPECT_EQ(again_cold.find("result_hash")->asString(),
              warm_flag_hash);
    daemon.stop();
}

TEST(ServeDaemonTest, ConcurrentIdenticalRequestsCoalesce)
{
    const std::string sock = tempSocketPath("flight");
    ServeOptions options;
    options.socketPath = sock;
    options.threads = 2;
    ServeDaemon daemon(options);
    daemon.start();

    constexpr int kClients = 6;
    std::vector<std::string> hashes(kClients);
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            TestClient client(sock);
            const Json r = client.rpc(runLine());
            if (r.find("ok")->asBool())
                hashes[static_cast<std::size_t>(i)] =
                    r.find("result_hash")->asString();
        });
    }
    for (std::thread& t : threads)
        t.join();

    for (const std::string& h : hashes)
        EXPECT_EQ(h, hashes[0]);
    EXPECT_FALSE(hashes[0].empty());

    // Single-flight: duplicates attached as waiters, so the
    // daemon simulated strictly fewer times than it answered.
    const ServeStats stats = daemon.stats();
    EXPECT_GE(stats.jobsDone, 1u);
    EXPECT_LT(stats.jobsDone,
              static_cast<std::uint64_t>(kClients));
    daemon.stop();
}

TEST(ServeDaemonTest, OverLimitClientGetsRetryAfter)
{
    const std::string sock = tempSocketPath("rate");
    ServeOptions options;
    options.socketPath = sock;
    options.threads = 1;
    options.ratePerSecond = 0.5;
    options.rateBurst = 1;
    ServeDaemon daemon(options);
    daemon.start();
    TestClient client(sock);

    // Unique identities (cache hits bypass the throttler by
    // design), same principal, back to back.
    const Json first = client.rpc(
        R"({"op":"run","benchmark":"eon","cycles":1000,)"
        R"("seed":100,"client":"greedy"})");
    EXPECT_TRUE(first.find("ok")->asBool());
    const Json second = client.rpc(
        R"({"op":"run","benchmark":"eon","cycles":1000,)"
        R"("seed":101,"client":"greedy"})");
    ASSERT_FALSE(second.find("ok")->asBool());
    const Json* retry = second.find("retry_after");
    ASSERT_NE(retry, nullptr);
    EXPECT_GT(retry->asDouble(), 0.0);
    EXPECT_EQ(daemon.stats().rateLimited, 1u);
    daemon.stop();
}

TEST(ServeDaemonTest, StatsPingAndErrorsOverTheWire)
{
    const std::string sock = tempSocketPath("stats");
    ServeOptions options;
    options.socketPath = sock;
    options.threads = 1;
    ServeDaemon daemon(options);
    daemon.start();
    TestClient client(sock);

    EXPECT_TRUE(
        client.rpc(R"({"op":"ping"})").find("ok")->asBool());

    // Malformed line -> error reply, connection stays usable.
    const Json err = client.rpc("this is not json");
    EXPECT_FALSE(err.find("ok")->asBool());

    // Unknown benchmark -> error reply, not a dead worker.
    const Json bad = client.rpc(
        R"({"op":"run","benchmark":"nope","cycles":10})");
    EXPECT_FALSE(bad.find("ok")->asBool());

    // Oversized request -> shed up front.
    const Json huge = client.rpc(
        R"({"op":"run","benchmark":"eon",)"
        R"("cycles":999999999999})");
    EXPECT_FALSE(huge.find("ok")->asBool());

    // The id is echoed for correlation.
    const Json tagged =
        client.rpc(R"({"op":"ping","id":17})");
    ASSERT_NE(tagged.find("id"), nullptr);
    EXPECT_EQ(tagged.find("id")->asInt(), 17);

    const Json stats = client.rpc(R"({"op":"stats"})");
    EXPECT_TRUE(stats.find("ok")->asBool());
    EXPECT_EQ(stats.find("jobs_done")->asInt(), 0);
    EXPECT_GE(stats.find("jobs_failed")->asInt(), 1);
    daemon.stop();
}

TEST(ServeDaemonTest, UnknownConfigKeyIsAnUncachedError)
{
    // The daemon translates sim keys only: a cmp.cores request
    // used to run one core, and a typo ran the default.
    const std::string sock = tempSocketPath("keys");
    ServeOptions options;
    options.socketPath = sock;
    options.threads = 1;
    ServeDaemon daemon(options);
    daemon.start();
    TestClient client(sock);
    const auto names = [](const Json& reply, const std::string& key) {
        const Json* error = reply.find("error");
        return error != nullptr &&
               error->asString().find("'" + key + "'") !=
                   std::string::npos;
    };

    const std::string line =
        R"({"op":"run","benchmark":"eon","cycles":1000,)"
        R"("config":{"cmp.cores":"4"}})";
    for (int i = 0; i < 2; ++i) {
        const Json reply = client.rpc(line);
        EXPECT_TRUE(names(reply, "cmp.cores")) << reply.dump();
    }
    const Json typo = client.rpc(
        R"({"op":"run","benchmark":"eon","cycles":1000,)"
        R"("config":{"dtm.togling":"true"}})");
    EXPECT_TRUE(names(typo, "dtm.togling")) << typo.dump();

    // Still serving, and none of the refusals was cached.
    const Json ok = client.rpc(
        R"({"op":"run","benchmark":"eon","cycles":1000})");
    EXPECT_TRUE(ok.find("ok")->asBool()) << ok.dump();
    const ServeStats stats = daemon.stats();
    EXPECT_EQ(stats.jobsFailed, 3u);
    EXPECT_EQ(stats.cache.entries, 1u);
    daemon.stop();
}

TEST(ServeDaemonTest, WakeFdByteStopsTheDaemonLikeASignal)
{
    const std::string sock = tempSocketPath("sig");
    ServeOptions options;
    options.socketPath = sock;
    options.threads = 1;
    ServeDaemon daemon(options);
    daemon.start();
    // Exactly what tools/tempest_serve.cc's SIGINT/SIGTERM
    // handler does: one 'q' byte into the wake pipe. Without
    // the poll loop translating it into requestStop(), this
    // test hangs in waitStopped() forever.
    const char byte = 'q';
    ASSERT_EQ(::write(daemon.wakeFd(), &byte, 1), 1);
    daemon.waitStopped();
    daemon.stop();
    EXPECT_FALSE(std::filesystem::exists(sock));
}

TEST(ServeDaemonTest, SlowReaderCannotStallTheDaemon)
{
    const std::string sock = tempSocketPath("slow");
    ServeOptions options;
    options.socketPath = sock;
    options.threads = 1;
    ServeDaemon daemon(options);
    daemon.start();
    TestClient slow(sock);
    TestClient live(sock);

    // ~1 KiB of echoed correlation id per ping; a few thousand
    // unread replies overflow the socket buffer and then the
    // daemon's per-connection outbox cap. The daemon must shed
    // the non-reading peer, not block sending to it.
    const std::string line =
        std::string(R"({"op":"ping","id":")") +
        std::string(1024, 'x') + R"("})";
    for (int i = 0; i < 4096; ++i) {
        if (!slow.sendOnly(line))
            break; // daemon dropped us: the intended outcome
    }

    // Before the non-blocking outbox, the poll thread was stuck
    // in send() to `slow` here and this rpc would never return.
    const Json pong = live.rpc(R"({"op":"ping"})");
    EXPECT_TRUE(pong.find("ok")->asBool());
    daemon.stop();
}

TEST(ServeDaemonTest, ShutdownOpStopsTheDaemon)
{
    const std::string sock = tempSocketPath("bye");
    ServeOptions options;
    options.socketPath = sock;
    options.threads = 1;
    ServeDaemon daemon(options);
    daemon.start();
    {
        TestClient client(sock);
        EXPECT_TRUE(client.rpc(R"({"op":"shutdown"})")
                        .find("ok")
                        ->asBool());
    }
    daemon.waitStopped(); // returns because shutdown was seen
    daemon.stop();
    EXPECT_FALSE(std::filesystem::exists(sock));
}

} // namespace
} // namespace serve
} // namespace tempest
