#!/usr/bin/env python3
"""Same-session A/B of this tree's program against a base revision.

Builds the base revision in a temporary checkout that carries this
tree's perfbench/ and BENCHMARK.json, so only the program differs
between the two sides, and this tree as it stands in a second one,
so edits made while pairs run cannot reach the measured program.
Then, per workload, runs interleaved pairs of untraced
perfbench/run.py runs: pair i runs seed i+1 on both sides, the base
first on even pairs and the change first on odd ones. It prints each
end-to-end metric's median and quartiles per side and the
change/base ratio of every pair, and exits 1 when the median ratio
of paper_sweep sim_mips is below GATE_MIN_RATIO. A run that fails or
reports "correct": false stops the script, naming the run, and
nothing is recorded.

    python3 tools/record_bench.py [--base HEAD^] [--pairs 10]
        [--seconds S] [--workload NAME ...] [--record]

Workloads and run seconds default to BENCHMARK.json's. --record
appends one entry to BENCH_wallclock.json. Stdlib only.
"""

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HISTORY = ROOT / "BENCH_wallclock.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "perfbench"))
from benchlib import median  # noqa: E402

# The gate: paper_sweep's median per-pair change/base sim_mips ratio
# must reach this. At CI's 6 pairs of one round each on a 4-vCPU
# host, three A/A runs read medians of 1.007-1.043 (single pairs
# 0.88-1.09) and three runs of a 15% tick slowdown 0.80-0.89.
GATE_WORKLOAD, GATE_METRIC, GATE_MIN_RATIO = "paper_sweep", "sim_mips", 0.92


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def checkout(rev, dest):
    """The program at `rev` in `dest`, with this tree's benchmark
    files; rev None copies this tree's files as they stand (tracked
    and untracked, not ignored)."""
    dest.mkdir()
    if rev is None:
        names = git("ls-files", "-z", "--cached", "--others",
                    "--exclude-standard").split("\0")
        for name in filter(None, names):
            if (ROOT / name).is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, dest / name)
    else:
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(dest)],
                       stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            sys.exit(f"record_bench: git archive {rev} failed")
    shutil.rmtree(dest / "perfbench", ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")


def build(tree):
    """Build a side's benchmark binary before any pair is timed."""
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path.insert(0, sys.argv[1]); "
                    "import run; run.build()", str(tree / "perfbench")],
                   check=True)


def run_perfbench(tree, workload, seed, seconds):
    """One untraced run's end-to-end metric values; None if it failed."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None
    if proc.returncode != 0 or result.get("correct") is not True:
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_pairs(trees, workload, pairs, seconds):
    """Both sides' metric dicts per pair, in pair order."""
    runs = {"base": [], "change": []}
    for i in range(pairs):
        seed = i + 1
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            metrics = run_perfbench(trees[side], workload, seed, seconds)
            if metrics is None:
                sys.exit(f"record_bench: the {side} run of {workload} "
                         f"seed {seed} failed; nothing recorded")
            runs[side].append(metrics)
    return runs


def spread(values):
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"median": median(values), "q1": q1, "q3": q3}


def summarize(runs):
    """Per metric: each side's median and quartiles, and the ratio's
    median and per-pair range."""
    out = {}
    for name in runs["base"][0]:
        base = [r[name] for r in runs["base"]]
        change = [r[name] for r in runs["change"]]
        ratios = [c / b for b, c in zip(base, change)]
        out[name] = {"base": spread(base), "change": spread(change),
                     "ratio": {"median": median(ratios), "min": min(ratios),
                               "max": max(ratios)}}
    return out


def ipc_changes(runs):
    """Pairs (0-based) whose two sides simulated different sim_ipc."""
    return [i for i, (b, c) in enumerate(zip(runs["base"], runs["change"]))
            if b["sim_ipc"] != c["sim_ipc"]]


def report(workload, runs, summary, changed):
    print(f"\n{workload}: {len(runs['base'])} pairs")
    print(f"{'pair':>4} {'seed':>4} first  " +
          " ".join(f"{n:>11}" for n in summary) + "   (change/base)")
    for i, (b, c) in enumerate(zip(runs["base"], runs["change"])):
        first = "base  " if i % 2 == 0 else "change"
        print(f"{i:>4} {i + 1:>4} {first} " +
              " ".join(f"{c[n] / b[n]:11.3f}" for n in summary))
    print(f"{'metric':12} {'base median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'ratio median [min, max]':>26}")
    for name, s in summary.items():
        cols = [f"{s[side]['median']:.5g} [{s[side]['q1']:.5g}, "
                f"{s[side]['q3']:.5g}]" for side in ("base", "change")]
        r = s["ratio"]
        print(f"{name:12} {cols[0]:>30} {cols[1]:>30} "
              f"{r['median']:>9.3f} [{r['min']:.3f}, {r['max']:.3f}]")
    for i in changed:
        print(f"behaviour change: {workload} pair {i} (seed {i + 1}) "
              f"sim_ipc base {runs['base'][i]['sim_ipc']!r} "
              f"change {runs['change'][i]['sim_ipc']!r}")


def gate_passes(summaries):
    if GATE_WORKLOAD not in summaries:
        print(f"gate: {GATE_WORKLOAD} not run; nothing gated")
        return True
    ratio = summaries[GATE_WORKLOAD][GATE_METRIC]["ratio"]["median"]
    ok = ratio >= GATE_MIN_RATIO
    print(f"gate: {GATE_WORKLOAD} {GATE_METRIC} median change/base "
          f"{ratio:.3f} {'>=' if ok else '<'} {GATE_MIN_RATIO} "
          f"({'pass' if ok else 'FAIL'})")
    return ok


def record(entry):
    history = (json.loads(HISTORY.read_text())["history"]
               if HISTORY.exists() else [])
    history.append(entry)
    HISTORY.write_text(json.dumps({"bench": "wallclock",
                                   "history": history}, indent=2) + "\n")
    print(f"recorded {entry['git_rev']}{'-dirty' if entry['dirty'] else ''}"
          f" against {entry['base_rev']} -> {HISTORY.name}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", default="HEAD^",
                   help="base revision (default: HEAD^)")
    p.add_argument("--pairs", type=int, default=10,
                   help="interleaved base/change pairs per workload "
                        "(default: 10)")
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                   help="perfbench run length (default: BENCHMARK.json's)")
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in SPEC["workloads"]],
                   help="repeatable (default: every BENCHMARK.json "
                        "workload)")
    p.add_argument("--record", action="store_true",
                   help="append the result to BENCH_wallclock.json")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    base_rev = git("rev-parse", "--short", "--verify",
                   args.base + "^{commit}")
    dirty = bool(git("status", "--porcelain"))

    with tempfile.TemporaryDirectory(prefix="record_bench-") as tmp:
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        for side, rev in (("base", base_rev), ("change", None)):
            checkout(rev, trees[side])
            build(trees[side])
        results = {w: run_pairs(trees, w, args.pairs, args.seconds)
                   for w in workloads}

    summaries = {w: summarize(runs) for w, runs in results.items()}
    changed = {w: ipc_changes(runs) for w, runs in results.items()}
    for w, runs in results.items():
        report(w, runs, summaries[w], changed[w])
    passed = gate_passes(summaries)
    if args.record:
        record({
            "recorded_at": datetime.datetime.now(datetime.timezone.utc)
            .strftime("%Y-%m-%dT%H:%M:%SZ"),
            "kind": "perfbench_ab",
            "git_rev": git("rev-parse", "--short", "HEAD"),
            "dirty": dirty,
            "base_rev": base_rev,
            "pairs": args.pairs,
            "run_seconds": args.seconds,
            "hardware_concurrency": os.cpu_count(),
            "workloads": {w: {"metrics": summaries[w],
                              "sim_ipc_changed_pairs": len(changed[w])}
                          for w in results},
        })
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
