#!/usr/bin/env python3
"""CI gate for the profiled build: run bench_profile and assert the
per-stage breakdown parses.

The profiler (src/common/profiler.hh) is compiled out of normal
builds, so nothing in the default CI matrix would notice if a stage
enum, a TEMPEST_PROF_SCOPE site, or the report formatting rotted.
This check builds the attribution story end to end: it runs
bench_profile from a -DTEMPEST_PROFILE=ON build and fails unless

  * every pipeline/interval stage appears in the report,
  * every stage accumulated nonzero ticks and calls,
  * the share column sums to ~100%, and
  * the header counts the idle cycles OooCore::advance skipped
    (they run no stage): some were skipped, and ticked plus skipped
    cycles do not exceed the cycles simulated.

Usage:
    python3 tools/check_profile_report.py [--build-dir build-prof]
        [--cycles 200000]

Stdlib only; no third-party dependencies.
"""

import argparse
import os
import re
import subprocess
import sys

# Keep in sync with profStageName() in src/common/profiler.hh.
EXPECTED_STAGES = [
    "fetch", "dispatch", "issue/select", "writeback", "compact",
    "commit", "power", "thermal", "sensor", "dtm",
]

ROW_RE = re.compile(
    r"^\s*(\S+)\s+(\d+)\s+([0-9.]+)%\s+(\d+)\s+([0-9.]+)\s*$")
HEADER_RE = re.compile(
    r"^per-stage breakdown over (\d+) cycles x (\d+) runs, "
    r"(\d+) idle cycles skipped outside the stages$")


def repo_root():
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.dirname(here)


def fail(msg):
    print(f"::error title=bench-profile-smoke::{msg}",
          file=sys.stderr)
    return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build-prof")
    parser.add_argument("--cycles", default="200000",
                        help="simulated cycles per run (small: this "
                             "is a parse check, not a benchmark)")
    args = parser.parse_args()

    binary = os.path.join(repo_root(), args.build_dir, "bench",
                          "bench_profile")
    if not os.path.exists(binary):
        return fail(f"{binary} not found; build the profiled "
                    "configuration first")

    env = dict(os.environ)
    env["TEMPEST_CYCLES"] = args.cycles
    proc = subprocess.run([binary], env=env, capture_output=True,
                          text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        return fail(f"bench_profile exited {proc.returncode}")
    if "profiling is compiled out" in proc.stdout:
        return fail("bench_profile was built without "
                    "-DTEMPEST_PROFILE=ON; the smoke step must run "
                    "against the profiled configuration")

    rows = {}
    for line in proc.stdout.splitlines():
        m = ROW_RE.match(line)
        if m:
            name, ticks, share, calls, _per_call = m.groups()
            rows[name] = (int(ticks), float(share), int(calls))

    missing = [s for s in EXPECTED_STAGES if s not in rows]
    if missing:
        return fail("stage breakdown is missing rows for: "
                    + ", ".join(missing))
    unknown = [s for s in rows if s not in EXPECTED_STAGES]
    if unknown:
        return fail("stage breakdown has rows this check does not "
                    "know: " + ", ".join(unknown)
                    + " (update EXPECTED_STAGES alongside "
                    "profStageName())")

    for name, (ticks, _share, calls) in rows.items():
        if ticks == 0 or calls == 0:
            return fail(f"stage '{name}' recorded ticks={ticks} "
                        f"calls={calls}; its TEMPEST_PROF_SCOPE "
                        "site is not firing")

    total_share = sum(share for _t, share, _c in rows.values())
    if abs(total_share - 100.0) > 0.01 * len(rows):
        return fail(f"share column sums to {total_share:.2f}%, "
                    "expected ~100%")

    header = [m for m in map(HEADER_RE.match, proc.stdout.splitlines())
              if m]
    if len(header) != 1:
        return fail("report header with the skipped idle cycle count "
                    "not found")
    cycles, runs, skipped = (int(g) for g in header[0].groups())
    # Every tick() runs the fetch stage exactly once.
    ticked = rows["fetch"][2]
    if skipped == 0:
        return fail("no idle cycles skipped; OooCore::advance's count "
                    "is not reaching the profiler")
    if ticked + skipped > cycles * runs:
        return fail(f"{ticked} ticked + {skipped} skipped cycles "
                    f"exceed the {cycles * runs} simulated")

    print(f"bench-profile-smoke: {len(rows)} stages, shares sum to "
          f"{total_share:.2f}%, {ticked} cycles ticked and {skipped} "
          "skipped idle — OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
