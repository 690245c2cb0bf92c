"""Helpers the benchmark runner uses: percentiles, span self time,
the open-loop request schedule, and latency accounting.

Every function here is pure so perfbench/test_benchlib.py can pin
its behaviour.
"""

import json
import math
import random
import statistics

#: The tail is the highest percentile with at least this many
#: samples beyond it.
TAIL_BEYOND = 10

FNV_BASIS = 0xCBF29CE484222325


def tail(values, beyond=TAIL_BEYOND):
    """Latency at the highest percentile with >= `beyond` samples
    beyond it.

    Returns (value, percentile, samples_beyond). With `beyond` or
    fewer samples no percentile qualifies; the slowest sample is
    returned as p100 with nothing beyond it. Failed requests enter
    as math.inf, so they rank beyond any finite latency.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return ordered[-1], 100.0, 0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def median(values):
    return statistics.median(values)


def fastest_round(op_walls_by_round):
    """Seconds of one round with every op at its fastest repeat.

    `op_walls_by_round` holds, per round, the wall of each op (a
    fork) in order; every round repeats the same ops. The host can
    only slow an op down, so an op's fastest repeat is the closest
    to its own cost.
    """
    return sum(min(op) for op in zip(*op_walls_by_round, strict=True))


def self_times(spans):
    """Total and self seconds per span name.

    `spans` are dicts with "name", "start", "end" (seconds), "span"
    (its index) and "parent" (-1 for roots). A span's self time is
    its duration minus the part of it its children cover; children
    that overlap each other are counted once.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children.get(s["span"], []),
                        key=lambda c: c["start"]):
            lo = max(c["start"], cursor, s["start"])
            hi = min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        total = s["end"] - s["start"]
        entry = out.setdefault(s["name"], {"count": 0, "total": 0.0,
                                           "self": 0.0})
        entry["count"] += 1
        entry["total"] += total
        entry["self"] += total - covered
    return out


def read_chrome_trace(path):
    """Spans from a Chrome trace-event file tempest_perfbench wrote."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    return [{"name": e["name"], "start": e["ts"] * 1e-6,
             "end": (e["ts"] + e["dur"]) * 1e-6,
             "span": e["args"]["span"], "parent": e["args"]["parent"],
             "id": e["args"]["id"]} for e in events]


def run_request(rid, benchmark, cycles, seed, flags):
    """One tempest_serve run request line."""
    config = {"floorplan.variant": "iq", **flags}
    return json.dumps({"op": "run", "id": rid, "benchmark": benchmark,
                       "cycles": cycles, "seed": seed,
                       "config": config}, sort_keys=True)


#: DTM technique keys a fresh identity may vary. The daemon's warm
#: identity neutralises exactly these, so every fresh identity forks
#: from a warm snapshot primed during set-up. Threshold keys such as
#: dtm.toggle_delta stay fixed: varying them would rebuild the
#: warm-up on every miss.
TECHNIQUE_FLAGS = ("dtm.toggling", "dtm.fetch_throttling",
                   "dtm.alu_turnoff", "dtm.regfile_turnoff",
                   "dtm.round_robin")


def make_schedule(seed, seconds, rate, miss_share, benchmarks, cycles,
                  interval):
    """The serve_mixed inputs for one seed.

    Returns (hot, requests): `hot` is the primed set (each benchmark
    under two technique settings), `requests` a list of
    (due_seconds, hot_index or -1, line) with seeded Poisson
    arrivals at `rate` per second over `seconds`. About `miss_share`
    of them are fresh identities: random technique flags and a
    unique cycle offset below one sampling `interval`, so every
    fresh identity simulates as many intervals as a hot one.
    """
    rng = random.Random(seed)
    sim_seed = {b: rng.randrange(1, 2**31) for b in benchmarks}
    settings = ({}, {"dtm.toggling": "true",
                     "dtm.fetch_throttling": "true"})
    hot = [run_request(i, b, cycles, sim_seed[b], flags)
           for i, (b, flags) in enumerate(
               (b, f) for b in benchmarks for f in settings)]
    dues = []
    t = rng.expovariate(rate)
    while t < seconds:
        dues.append(t)
        t += rng.expovariate(rate)
    if not dues:
        dues.append(0.0)
    misses = max(1, round(miss_share * len(dues)))
    miss_at = set(rng.sample(range(len(dues)), misses))
    offsets = iter(rng.sample(range(1, interval), misses))
    # Fresh identities take the benchmarks in turn, so every seed
    # computes the same mix.
    miss_benchmarks = iter(benchmarks * misses)
    requests = []
    for i, due in enumerate(dues):
        if i in miss_at:
            b = next(miss_benchmarks)
            flags = {k: rng.choice(("true", "false"))
                     for k in TECHNIQUE_FLAGS}
            flags["dtm.mapping"] = rng.choice(("priority", "balanced"))
            line = run_request(i, b, cycles - next(offsets),
                               sim_seed[b], flags)
            requests.append((due, -1, line))
        else:
            h = rng.randrange(len(hot))
            line = json.loads(hot[h])
            line["id"] = i
            requests.append((due, h, json.dumps(line, sort_keys=True)))
    return hot, requests


def latencies(dues, recvs, oks):
    """Open-loop latency of each request, timed from its due time.

    A request that failed, was refused, or got no reply (recv < 0)
    counts as math.inf: beyond any latency limit.
    """
    return [r - d if ok and r >= 0 else math.inf
            for d, r, ok in zip(dues, recvs, oks)]


def lateness(dues, sents):
    """How late the generator sent each request, in seconds."""
    return [max(0.0, s - d) for d, s in zip(dues, sents) if s >= 0]


def fnv1a64(data, h=FNV_BASIS):
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h
