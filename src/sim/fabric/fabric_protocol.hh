/**
 * @file
 * Sweep-fabric wire protocol (DESIGN.md §15): the line-delimited
 * JSON messages a coordinator and its worker processes exchange
 * over per-worker Unix socketpairs, reusing the serve JSON codec
 * (src/serve/json.hh) so all three consumers of the dotted config
 * keys — tempest_run, tempest_serve, and the fabric — translate
 * configurations identically.
 *
 * Coordinator -> worker:
 *
 *   {"op":"job","index":7,"tag":"iq_toggling","cycles":2000000,
 *    "seed":"0x...","config":{"cmp.benchmarks":"mesa",...},
 *    "snapshot":"/spill/warm_mesa.ckpt","warm":false}
 *   {"op":"shutdown"}
 *
 * Worker -> coordinator:
 *
 *   {"op":"hello","pid":12345}
 *   {"op":"result","index":7,"ok":true,"result_hash":"0x...",
 *    "wall_seconds":0.41,"blob":"<hex CmpResult>"}
 *   {"op":"result","index":7,"ok":false,"error":"..."}
 *
 * A job message is one runner Job (sim/runner.hh) plus its index
 * in the batch, the deterministic merge key. "config" holds every
 * key configFromCmpConfig() renders, and "seed" the exact runSeed
 * in hex: run.seed parses as a non-negative int64, so it cannot
 * carry the half of derived seeds that are >= 2^63. Warm state
 * ships by file path, never by value: a warm job writes the
 * snapshot once per benchmark through the versioned checkpoint
 * format, and every fork re-reads it.
 *
 * Results travel as a hex-encoded binary blob in the StateIO
 * little-endian encoding (doubles as IEEE bit patterns), NOT as
 * JSON numbers: the fabric's contract is bit-identity with the
 * thread backend, and a double that round-trips through decimal
 * text cannot guarantee that. "result_hash" carries the worker's
 * hashCmpResult(); parseResult recomputes it from the decoded
 * blob and turns a mismatch into a failed outcome (transport
 * corruption).
 */

#ifndef TEMPEST_SIM_FABRIC_FABRIC_PROTOCOL_HH
#define TEMPEST_SIM_FABRIC_FABRIC_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "serve/json.hh"
#include "sim/runner.hh"

namespace tempest
{
namespace fabric
{

// ---- message codecs (one JSON document per line, no newline) ----

std::string encodeJob(std::size_t index, const Job& job);
/** Parse a job message into (index, job); fatal() on malformed
 * input or a config the dotted keys reject. */
std::pair<std::size_t, Job> parseJob(const serve::Json& doc);

/** A result message for job `index`; only ok, error, wallSeconds
 * and result travel (the coordinator knows the job). */
std::string encodeResult(std::size_t index, const Outcome& outcome);
/** Parse a result message into (index, outcome); fatal() on
 * malformed input. */
std::pair<std::size_t, Outcome> parseResult(const serve::Json& doc);

std::string encodeHello(long pid);
std::string encodeShutdown();

// ---- result blobs (StateIO encoding) ----

/** Serialize every SimResult field bit-exactly. */
std::string encodeSimResultBlob(const SimResult& result);
/** Inverse of encodeSimResultBlob; fatal() on truncation, trailing
 * bytes, or a count the remaining bytes cannot hold. */
SimResult decodeSimResultBlob(std::string_view bytes);

/** Serialize every CmpResult field bit-exactly: each core's
 * SimResult blob, the shared blocks, the migration counters, the
 * placement and the cycle count. */
std::string encodeCmpResultBlob(const CmpResult& result);
/** Inverse of encodeCmpResultBlob; fatal() like
 * decodeSimResultBlob. */
CmpResult decodeCmpResultBlob(std::string_view bytes);

// ---- helpers ----

/** Lowercase hex, two digits per byte. */
std::string hexEncode(std::string_view bytes);
/** Inverse of hexEncode; fatal() on odd length or non-hex. */
std::string hexDecode(std::string_view hex);

/** Parse "0x..."/plain hex into a u64; fatal() on garbage. */
std::uint64_t parseHexU64(const std::string& text);

} // namespace fabric
} // namespace tempest

#endif // TEMPEST_SIM_FABRIC_FABRIC_PROTOCOL_HH
