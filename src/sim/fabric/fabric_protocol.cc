#include "sim/fabric/fabric_protocol.hh"

#include <cerrno>
#include <cstdlib>

#include "common/log.hh"
#include "serve/protocol.hh"
#include "sim/checkpoint/stateio.hh"
#include "sim/sim_config_io.hh"

namespace tempest
{
namespace fabric
{

namespace
{

/** Required object member; fatal() with the field name. */
const serve::Json&
field(const serve::Json& doc, const char* key)
{
    const serve::Json* value = doc.find(key);
    if (!value)
        fatal("fabric message has no \"", key, "\" field");
    return *value;
}

/** Encoded bytes of one block's statistics: name length, avg,
 * max. */
constexpr std::size_t kBlockBytes = 4 + 8 + 8;

/** Fewest encoded bytes of a SimResult blob (empty name, no
 * blocks), plus the length prefix it carries inside a CmpResult
 * blob. */
constexpr std::size_t kCoreBytes = 4 + (4 + 8 + 3 * 8) +
                                   (8 + sizeof(DtmStats)) +
                                   (8 + sizeof(ActivityRecord)) + 4;

/** fatal() naming `what` unless `count` elements of at least
 * `bytes` each fit in what `r` has left, so a corrupt count can
 * never size an allocation. */
void
checkCount(const StateReader& r, std::uint32_t count,
           std::size_t bytes, const char* what)
{
    if (count > r.remaining() / bytes) {
        fatal("fabric result blob: ", what, " count ", count,
              " exceeds the ", r.remaining(), " bytes left");
    }
}

} // namespace

std::string
hexEncode(std::string_view bytes)
{
    static const char kDigits[] = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (const char c : bytes) {
        const auto b = static_cast<unsigned char>(c);
        out.push_back(kDigits[b >> 4]);
        out.push_back(kDigits[b & 0xf]);
    }
    return out;
}

std::string
hexDecode(std::string_view hex)
{
    if (hex.size() % 2 != 0)
        fatal("hex blob has odd length ", hex.size());
    auto nibble = [](char c) -> int {
        if (c >= '0' && c <= '9')
            return c - '0';
        if (c >= 'a' && c <= 'f')
            return c - 'a' + 10;
        if (c >= 'A' && c <= 'F')
            return c - 'A' + 10;
        fatal("invalid hex digit '", std::string(1, c), "'");
    };
    std::string out;
    out.reserve(hex.size() / 2);
    for (std::size_t i = 0; i < hex.size(); i += 2) {
        out.push_back(static_cast<char>((nibble(hex[i]) << 4) |
                                        nibble(hex[i + 1])));
    }
    return out;
}

std::uint64_t
parseHexU64(const std::string& text)
{
    const char* start = text.c_str();
    char* end = nullptr;
    errno = 0;
    const std::uint64_t v = std::strtoull(start, &end, 16);
    if (end == start || *end != '\0' || errno == ERANGE)
        fatal("'", text, "' is not a hex u64");
    return v;
}

// The "op" routing key is read by the worker dispatch loop before
// parseJob ever sees the message, so the decoder never reads it.
// proto:skip(op: routing key consumed by the dispatch loop)
std::string
encodeJob(std::size_t index, const Job& job)
{
    serve::Json msg;
    msg["op"] = serve::Json("job");
    msg["index"] = serve::Json(static_cast<std::uint64_t>(index));
    msg["tag"] = serve::Json(job.tag);
    msg["cycles"] = serve::Json(job.cycles);
    msg["seed"] = serve::Json(serve::hexU64(job.config.base.runSeed));
    // Config entries are already strings; shipping them verbatim
    // (and re-set()ing on the worker) is an exact round trip.
    serve::Json config{serve::Json::Object{}};
    const Config keys = configFromCmpConfig(job.config);
    for (const auto& [key, value] : keys.entries())
        config[key] = serve::Json(value);
    msg["config"] = config;
    if (!job.snapshot.empty())
        msg["snapshot"] = serve::Json(job.snapshot);
    msg["warm"] = serve::Json(job.warm);
    return msg.dump();
}

std::pair<std::size_t, Job>
parseJob(const serve::Json& doc)
{
    const auto index = static_cast<std::size_t>(
        field(doc, "index").asUnsigned());
    Job job;
    job.tag = field(doc, "tag").asString();
    job.cycles = field(doc, "cycles").asUnsigned();
    const std::uint64_t seed =
        parseHexU64(field(doc, "seed").asString());
    Config config;
    for (const auto& [key, value] :
         field(doc, "config").asObject())
        config.set(key, value.asString());
    job.config = cmpConfigFromConfig(config);
    job.config.base.runSeed = seed;
    if (const serve::Json* snapshot = doc.find("snapshot"))
        job.snapshot = snapshot->asString();
    job.warm = field(doc, "warm").asBool();
    if (job.warm && job.snapshot.empty())
        fatal("fabric warm job needs a snapshot output path");
    return {index, std::move(job)};
}

// Same asymmetry as encodeJob: the coordinator routes on "op"
// before handing the document to parseResult.
// proto:skip(op: routing key consumed by the dispatch loop)
std::string
encodeResult(std::size_t index, const Outcome& outcome)
{
    serve::Json msg;
    msg["op"] = serve::Json("result");
    msg["index"] = serve::Json(static_cast<std::uint64_t>(index));
    msg["ok"] = serve::Json(outcome.ok);
    if (!outcome.ok) {
        msg["error"] = serve::Json(outcome.error);
        return msg.dump();
    }
    msg["result_hash"] =
        serve::Json(serve::hexU64(hashCmpResult(outcome.result)));
    msg["wall_seconds"] = serve::Json(outcome.wallSeconds);
    msg["blob"] = serve::Json(
        hexEncode(encodeCmpResultBlob(outcome.result)));
    return msg.dump();
}

std::pair<std::size_t, Outcome>
parseResult(const serve::Json& doc)
{
    const auto index = static_cast<std::size_t>(
        field(doc, "index").asUnsigned());
    Outcome out;
    out.ok = field(doc, "ok").asBool();
    if (!out.ok) {
        out.error = field(doc, "error").asString();
        return {index, std::move(out)};
    }
    const std::uint64_t hash =
        parseHexU64(field(doc, "result_hash").asString());
    out.wallSeconds = field(doc, "wall_seconds").asDouble();
    out.result = decodeCmpResultBlob(
        hexDecode(field(doc, "blob").asString()));
    if (hashCmpResult(out.result) != hash) {
        out.ok = false;
        out.error = "result hash mismatch (transport corruption)";
        out.result = CmpResult();
    }
    return {index, std::move(out)};
}

std::string
encodeHello(long pid)
{
    serve::Json msg;
    msg["op"] = serve::Json("hello");
    msg["pid"] = serve::Json(static_cast<std::int64_t>(pid));
    return msg.dump();
}

std::string
encodeShutdown()
{
    serve::Json msg;
    msg["op"] = serve::Json("shutdown");
    return msg.dump();
}

std::string
encodeSimResultBlob(const SimResult& result)
{
    StateWriter w;
    w.str(result.benchmark);
    w.f64(result.ipc);
    w.u64(result.cycles);
    w.u64(result.instructions);
    w.u64(result.stallCycles);
    // DtmStats and ActivityRecord are flat all-u64 PODs; the bulk
    // write captures every counter bit-exactly and the matching
    // length check on the reader side turns a layout drift between
    // coordinator and worker builds into a clear error.
    w.blob(&result.dtm, sizeof(result.dtm));
    w.blob(&result.activity, sizeof(result.activity));
    w.u32(static_cast<std::uint32_t>(result.blocks.size()));
    for (const BlockTempStats& b : result.blocks) {
        w.str(b.name);
        w.f64(b.avg);
        w.f64(b.max);
    }
    return w.bytes();
}

SimResult
decodeSimResultBlob(std::string_view bytes)
{
    StateReader r(bytes);
    SimResult result;
    result.benchmark = r.str();
    result.ipc = r.f64();
    result.cycles = r.u64();
    result.instructions = r.u64();
    result.stallCycles = r.u64();
    r.blob(&result.dtm, sizeof(result.dtm));
    r.blob(&result.activity, sizeof(result.activity));
    const std::uint32_t num_blocks = r.u32();
    checkCount(r, num_blocks, kBlockBytes, "block");
    result.blocks.resize(num_blocks);
    for (BlockTempStats& b : result.blocks) {
        b.name = r.str();
        b.avg = r.f64();
        b.max = r.f64();
    }
    if (!r.atEnd())
        fatal("fabric result blob has ", r.remaining(),
              " trailing bytes");
    return result;
}

std::string
encodeCmpResultBlob(const CmpResult& result)
{
    StateWriter w;
    w.u32(static_cast<std::uint32_t>(result.cores.size()));
    for (const SimResult& core : result.cores)
        w.str(encodeSimResultBlob(core));
    w.u32(static_cast<std::uint32_t>(result.shared.size()));
    for (const BlockTempStats& b : result.shared) {
        w.str(b.name);
        w.f64(b.avg);
        w.f64(b.max);
    }
    // CmpDtmStats is a flat all-u64 POD, like DtmStats above.
    w.blob(&result.migration, sizeof(result.migration));
    w.u32(static_cast<std::uint32_t>(result.tileOfJob.size()));
    for (const int tile : result.tileOfJob)
        w.i32(tile);
    w.u64(result.cycles);
    return w.bytes();
}

CmpResult
decodeCmpResultBlob(std::string_view bytes)
{
    StateReader r(bytes);
    CmpResult result;
    const std::uint32_t num_cores = r.u32();
    checkCount(r, num_cores, kCoreBytes, "core");
    result.cores.resize(num_cores);
    for (SimResult& core : result.cores)
        core = decodeSimResultBlob(r.str());
    const std::uint32_t num_shared = r.u32();
    checkCount(r, num_shared, kBlockBytes, "shared block");
    result.shared.resize(num_shared);
    for (BlockTempStats& b : result.shared) {
        b.name = r.str();
        b.avg = r.f64();
        b.max = r.f64();
    }
    r.blob(&result.migration, sizeof(result.migration));
    const std::uint32_t num_tiles = r.u32();
    checkCount(r, num_tiles, 4, "placement");
    result.tileOfJob.resize(num_tiles);
    for (int& tile : result.tileOfJob)
        tile = r.i32();
    result.cycles = r.u64();
    if (!r.atEnd())
        fatal("fabric result blob has ", r.remaining(),
              " trailing bytes");
    return result;
}

} // namespace fabric
} // namespace tempest
