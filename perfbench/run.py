#!/usr/bin/env python3
"""Tempest benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload <paper_sweep|serve_mixed>
        --seed N --seconds S --trace <0|1>

Builds tempest_perfbench and the program from source into .bench_build/
(first run only), runs the workload, checks its outputs, prints a
table, and prints one JSON result as the last stdout line: every
end-to-end metric untraced (--trace 0), every per-layer metric
traced (--trace 1). Exits nonzero when a check fails. See
perfbench/README.md for the workloads and metric definitions.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "tempest_perfbench"
WORKLOADS = ("paper_sweep", "serve_mixed")

# serve_mixed traffic: open loop, one client thread on CONNECTIONS
# connections to a 2-worker daemon; ~10% fresh identities keep the
# workers ~20% busy, well below saturation.
SERVE = dict(threads=2, warmup_cycles=500_000, connections=4, rate=40.0,
             miss_share=0.1, benchmarks=("eon", "art"), cycles=200_000,
             interval=50_000)
# A generator later than this at its tail percentile makes the run
# invalid: its latencies would measure the client, not the daemon.
MAX_GEN_LATE_MS = 50.0
RUN_TIMEOUT_S = 170

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) \
    if (ROOT / "BENCHMARK.json").exists() else None


def build():
    """Configure once per checkout, then bring the binary up to date."""
    if not (ROOT / "src" / "sim" / "simulator.hh").exists():
        sys.exit("perfbench: program sources not found next to "
                 f"{BENCH.name}/; nothing to build")
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(BUILD), "--target",
                        "tempest_perfbench", "-j", jobs],
                       check=True, stdout=sys.stderr)


def run_binary(args, workdir, extra=()):
    cmd = [str(BINARY), args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", str(workdir / "trace.json"), *extra]
    proc = subprocess.run(cmd, cwd=workdir, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"perfbench: {BINARY.name} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Result:
    """Metrics, op counts and failed checks of one run."""

    def __init__(self):
        self.metrics = {}
        self.notes = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def put(self, name, value, note=""):
        self.metrics[name] = float(value)
        if note:
            self.notes[name] = note

    def check(self, ok, message, ops=1):
        if not ok:
            self.errors.append(message)
            self.failed += ops


def plural(n, noun):
    return f"{n} {noun}" + ("" if n == 1 else "s")


def batch_metrics(d, res):
    """paper_sweep: repeated rounds of one measured region. A round
    is the op for latency: every round is the same work, so round
    latencies have one mode (fork latencies do not: eon forks cost
    ~4x art forks)."""
    rounds = d["rounds"]
    walls = [r["wall_s"] for r in rounds]
    res.attempted = sum(len(r["op_walls"]) for r in rounds)
    res.failed = sum(r["failed"] for r in rounds)
    res.check(res.failed == 0, f"{res.failed} ops threw", ops=0)
    res.check(d["setup_ok"], "set-up repetitions disagree")
    digests = {r["digest"] for r in rounds}
    res.check(len(digests) == 1, f"rounds disagree: {sorted(digests)}",
              ops=len(digests) - 1)
    # Rounds rotate over the CPUs; the host's speed swings rarely
    # cover every repeat of an op.
    fastest = benchlib.fastest_round([r["op_walls"] for r in rounds])
    res.put("sim_mips", d["region_instructions"] / fastest / 1e6,
            f"each op's fastest of {plural(len(rounds), 'round')}")
    res.put("sim_ipc", d["region_instructions"] / d["region_cycles"])
    res.put("setup_s", benchlib.median(d["setup_s"]))
    res.put("peak_rss_mb", d["peak_rss_kb"] / 1024)
    res.put("op_p50_ms", benchlib.median(walls) * 1e3,
            f"median of {plural(len(walls), 'round')}")
    value, pct, beyond = benchlib.tail(walls)
    res.put("op_tail_ms", value * 1e3,
            f"p{pct:.1f} of {plural(len(walls), 'round')}, {beyond} beyond")
    print(f"digest {rounds[0]['digest']}")


def finite(seconds):
    """A failed request's infinite latency, as a reportable 1e6 s."""
    return seconds if math.isfinite(seconds) else 1e6


def serve_outcomes(d, requests, res):
    """Per-request latencies and the serve_mixed correctness gates."""
    w = d["window"]
    dues = [r[0] for r in requests]
    oks = [bool(x) for x in w["ok"]]
    hot_hash = d["hot"]["hash"]
    res.attempted = len(requests)
    res.check(d["setup_ok"], "set-up repetitions disagree")
    digest = benchlib.FNV_BASIS
    for i, (due, h, line) in enumerate(requests):
        if w["recv"][i] < 0:
            res.check(False, f"request {i} timed out")
            continue
        if not oks[i]:
            res.check(False, f"request {i} failed or was shed")
            continue
        if h >= 0:
            # Each hit must carry the hash its identity got at
            # priming (the cache answers bit-identically).
            if w["hash"][i] != hot_hash[h]:
                oks[i] = False
                res.check(False, f"request {i}: hit hash differs")
        else:
            if w["cached"][i]:
                oks[i] = False
                res.check(False, f"request {i}: fresh identity cached")
            digest = benchlib.fnv1a64(
                (line + w["hash"][i]).encode(), digest)
    print(f"digest 0x{digest:016x}")
    lat = benchlib.latencies(dues, w["recv"], oks)
    late = benchlib.lateness(dues, w["sent"])
    computed = [i for i, r in enumerate(requests) if r[1] < 0 and oks[i]]
    return lat, late, computed


def serve_metrics(d, requests, res):
    lat, late, computed = serve_outcomes(d, requests, res)
    w = d["window"]
    instr = sum(w["instructions"][i] for i in computed)
    res.check(computed, "no fresh identity was computed", ops=0)
    res.put("sim_mips", instr / max(1e-9, sum(w["compute"][i] for i in
                                              computed)) / 1e6,
            f"{len(computed)} computed requests")
    res.put("sim_ipc", instr / max(1, sum(w["cycles"][i] for i in computed)))
    res.put("setup_s", benchlib.median(d["setup_s"]))
    res.put("peak_rss_mb", d["peak_rss_kb"] / 1024)
    res.put("op_p50_ms", finite(benchlib.median(lat)) * 1e3,
            f"median of {len(lat)} requests (a cache hit)")
    value, pct, beyond = benchlib.tail(lat)
    res.put("op_tail_ms", finite(value) * 1e3,
            f"p{pct:.2f} of {len(lat)} requests, {beyond} beyond "
            "(a fresh identity)")
    gen_late, _, _ = benchlib.tail(late)
    res.check(gen_late * 1e3 <= MAX_GEN_LATE_MS,
              f"generator fell behind: {gen_late * 1e3:.1f} ms late",
              ops=0)
    return lat, late, computed


def layer_defaults():
    names = [m["name"] for m in SPEC["per_layer"]]
    return {n: 0.0 for n in names}


def span_stats(trace_path):
    spans = benchlib.read_chrome_trace(trace_path)
    return spans, benchlib.self_times(spans)


def print_layers(stats):
    print(f"{'span':24} {'count':>7} {'total_s':>10} {'self_s':>10}")
    for name, s in sorted(stats.items(), key=lambda kv: -kv[1]["self"]):
        print(f"{name:24} {s['count']:7d} {s['total']:10.4f} "
              f"{s['self']:10.4f}")


def span_median_ms(spans, name):
    durs = [s["end"] - s["start"] for s in spans if s["name"] == name]
    return benchlib.median(durs) * 1e3 if durs else 0.0


def batch_layers(d, trace, res):
    spans, stats = span_stats(trace)
    print_layers(stats)
    total = lambda n: stats.get(n, {}).get("total", 0.0)  # noqa: E731
    loop = stats.get("loop", {"total": 0.0, "self": 0.0})
    m = layer_defaults()
    dtm = d["dtm"]
    m.update({
        "dtm.global_stalls": dtm["global_stalls"],
        "dtm.iq_toggles": dtm["iq_toggles"],
        "dtm.throttle_events": dtm["throttle_events"],
        "dtm.alu_turnoffs": dtm["alu_turnoffs"],
        "dtm.regfile_turnoffs": dtm["regfile_turnoffs"],
        "sim.construct_ms": span_median_ms(spans, "sim.construct"),
        "checkpoint.save_ms": span_median_ms(spans, "checkpoint.save"),
        "checkpoint.restore_ms": span_median_ms(spans,
                                                "checkpoint.restore"),
        "checkpoint.bytes": d["snapshot_bytes"],
        "thermal.nodes": d["thermal_nodes"],
        "thermal.propagators": d["thermal_propagators"],
        "thermal.step_us": d["thermal_step_us"],
        "thermal.propagator_ms": d["thermal_propagator_ms"],
        "trace.overhead": d["traced_wall_s"] / d["rounds"][0]["wall_s"] - 1,
        "uarch.tick_s": total("uarch.tick"),
        "uarch.ns_per_cycle": total("uarch.tick") / d["uarch_cycles"] * 1e9,
        "uarch.cycles": d["uarch_cycles"],
        "uarch.stall_cycles": d["uarch_stall_cycles"],
        "workload.ns_per_op": d["workload_ns_per_op"],
        "power.busy_s": total("power"),
        "thermal.step_s": total("thermal"),
        "thermal.sensor_s": total("sensor"),
        "dtm.busy_s": total("dtm"),
        "sim.loop_self_s": loop["self"],
    })
    print(f"loop time inside layer spans: "
          f"{100 * (1 - loop['self'] / loop['total']):.2f}%")
    res.attempted += len(d["rounds"][0]["op_walls"])
    res.failed += d["traced_failed"]
    res.check(d["traced_failed"] == 0, "traced ops threw", ops=0)
    res.check(d["traced_mismatches"] == 0,
              f"{d['traced_mismatches']} traced results differ from "
              "their untraced twins", ops=d["traced_mismatches"])
    for k, v in m.items():
        res.put(k, v)


def stats_delta(d, *path):
    before, after = d["stats_before"], d["stats_after"]
    for key in path:
        before, after = before[key], after[key]
    return after - before


def serve_layers(d, trace, lat, late, computed, requests, res):
    _, stats = span_stats(trace)
    print_layers(stats)
    w = d["window"]
    hits = [x for x, r in zip(lat, requests) if r[1] >= 0]
    misses = [lat[i] for i in computed]
    compute = [w["compute"][i] for i in computed]
    wait = [lat[i] - w["compute"][i] for i in computed]
    hits_d = stats_delta(d, "cache", "hits")
    misses_d = stats_delta(d, "cache", "misses")
    m = layer_defaults()
    m.update({
        "serve.hit_p50_ms": finite(benchlib.median(hits)) * 1e3,
        "serve.hit_tail_ms": finite(benchlib.tail(hits)[0]) * 1e3,
        "serve.miss_p50_ms": finite(benchlib.median(misses)) * 1e3,
        "serve.miss_tail_ms": finite(benchlib.tail(misses)[0]) * 1e3,
        "serve.miss_compute_ms": benchlib.median(compute) * 1e3,
        "serve.miss_wait_ms": finite(benchlib.median(wait)) * 1e3,
        "serve.parse_us": d["parse_us"],
        "serve.identity_us": d["identity_us"],
        "serve.cache_get_us": d["cache_get_us"],
        "serve.reply_dump_us": d["reply_dump_us"],
        "serve.cache_hit_ratio": hits_d / max(1, hits_d + misses_d),
        "serve.warm_builds": stats_delta(d, "warm_builds"),
        "serve.shed": stats_delta(d, "shed_queue_full")
        + stats_delta(d, "rate_limited"),
        "serve.jobs_failed": stats_delta(d, "jobs_failed"),
        "serve.gen_late_ms": benchlib.tail(late)[0] * 1e3,
        "trace.overhead": d["trace_overhead"],
    })
    for k, v in m.items():
        res.put(k, v)


def write_schedule(path, args):
    hot, requests = benchlib.make_schedule(
        args.seed, args.seconds, SERVE["rate"], SERVE["miss_share"],
        SERVE["benchmarks"], SERVE["cycles"], SERVE["interval"])
    with open(path, "w") as f:
        f.write(f"daemon {SERVE['threads']} {SERVE['warmup_cycles']} "
                f"{SERVE['connections']}\n")
        for line in hot:
            f.write(f"hot {line}\n")
        for due, h, line in requests:
            f.write(f"req {due!r} {line}\n")
    return requests


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if SPEC is None:
        sys.exit("perfbench: BENCHMARK.json not found")

    build()
    workdir = BUILD / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    res = Result()
    try:
        if args.workload == "serve_mixed":
            requests = write_schedule(workdir / "schedule.txt", args)
            d = run_binary(args, workdir,
                           ("--schedule", str(workdir / "schedule.txt")))
            lat, late, computed = serve_metrics(d, requests, res)
            if args.trace:
                serve_layers(d, workdir / "trace.json", lat, late,
                             computed, requests, res)
        else:
            d = run_binary(args, workdir)
            batch_metrics(d, res)
            if args.trace:
                batch_layers(d, workdir / "trace.json", res)
        if args.trace:
            kept = BUILD / "traces" / f"{args.workload}-seed{args.seed}.json"
            kept.parent.mkdir(exist_ok=True)
            shutil.move(str(workdir / "trace.json"), kept)
            print(f"trace {kept.relative_to(ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in
             SPEC["per_layer" if args.trace else "end_to_end"]}
    if not args.trace:
        print(f"{'metric':14} {'value':>14} unit")
        for name, unit in units.items():
            print(f"{name:14} {res.metrics[name]:14.6g} {unit:6} "
                  f"{res.notes.get(name, '')}")
    for e in res.errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    correct = not res.errors
    print(json.dumps({
        "correct": correct, "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {n: {"value": res.metrics[n], "unit": u}
                    for n, u in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
