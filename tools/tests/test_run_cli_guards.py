#!/usr/bin/env python3
"""Regression tests for tempest_run's argument hardening.

Five historical bugs, all of the silently-wrong variety:

  * a negative [run] cycles value passed through getInt() was cast
    straight to uint64_t, wrapped to ~1.8e19, and ran "forever" —
    it must now fail fast with a clear message;
  * --checkpoint-every was parsed with an unchecked strtoull, so
    trailing garbage ("1000x", "10 20") and negative values were
    silently accepted as something else entirely;
  * a key nothing reads (a typo such as dtm.togling, or a bare
    "cycles") was ignored, and the run took the default instead;
  * a dtm.cooling_time of -1 or 1e30 was cast to a cycle count
    unchecked (UB) and the run never finished; 0 stalled nothing;
  * run.trace_stride was narrowed to int unchecked, so 4294967297
    recorded every sample, as stride 1 would.

Usage: test_run_cli_guards.py <tempest_run binary>
"""

import subprocess
import sys
import tempfile


def run(binary, config_text, *extra, timeout=300):
    with tempfile.NamedTemporaryFile(
            "w", suffix=".ini", delete=False) as f:
        f.write(config_text)
        path = f.name
    return subprocess.run(
        [binary, path, *extra],
        capture_output=True, text=True, timeout=timeout)


FAST = """
[run]
benchmark = eon
cycles = 50000
"""

failures = []


def check(ok, message):
    tag = "ok  " if ok else "FAIL"
    print(f"[{tag}] {message}")
    if not ok:
        failures.append(message)


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: test_run_cli_guards.py <tempest_run>")
    binary = sys.argv[1]

    # Sanity: the binary still works on a valid config.
    r = run(binary, FAST)
    check(r.returncode == 0,
          f"valid config runs (exit {r.returncode})")
    check("result_hash" in r.stdout,
          "valid run prints a result_hash")

    # Negative cycles must be rejected, not wrapped to ~1.8e19.
    r = run(binary, FAST.replace("cycles = 50000",
                                 "cycles = -1"))
    check(r.returncode != 0, "negative run.cycles is rejected")
    check("run.cycles must be > 0" in r.stderr,
          "negative run.cycles names the actual problem")

    # Command-line override path hits the same guard.
    r = run(binary, FAST, "run.cycles = -5")
    check(r.returncode != 0,
          "negative run.cycles override is rejected")

    # Zero is just as unrunnable as negative.
    r = run(binary, FAST.replace("cycles = 50000",
                                 "cycles = 0"))
    check(r.returncode != 0, "zero run.cycles is rejected")

    # --checkpoint-every: trailing garbage, negatives, zero, and
    # non-numbers must all fail loudly.
    for bad in ("1000x", "-1", "0", "nope", "10 20", ""):
        r = run(binary, FAST, "--checkpoint-every", bad)
        check(r.returncode != 0,
              f"--checkpoint-every {bad!r} is rejected")

    # A valid checkpoint interval still works.
    with tempfile.TemporaryDirectory() as d:
        r = run(binary, FAST, "--checkpoint-every", "25000",
                "--checkpoint-dir", d)
        check(r.returncode == 0,
              f"valid --checkpoint-every runs "
              f"(exit {r.returncode})")

    # A key nothing applies is fatal and named, from the file or
    # the command line: a typo, a bare key without its section,
    # and the removed thermal.solver.
    for bad in ("dtm.togling = true", "cycles = 6000000",
                "thermal.solver = euler"):
        key = bad.split(" = ")[0]
        r = run(binary, FAST, bad)
        check(r.returncode == 1 and f"'{key}'" in r.stderr,
              f"override {bad!r} is rejected naming {key!r}")
    r = run(binary, FAST + "toggle_delta = 0.5\n")
    check(r.returncode == 1 and "'run.toggle_delta'" in r.stderr,
          "a key under the wrong section is rejected")

    # A cooling time with no stall cycle count fails fast instead
    # of hanging (-1, 1e30) or stalling nothing (0).
    hot = (FAST.replace("cycles = 50000", "cycles = 400000") +
           "[dtm]\nmax_temperature = 330\n")
    for bad in ("-1", "1e30", "0"):
        try:
            r = run(binary, hot, f"dtm.cooling_time = {bad}",
                    timeout=30)
            ok = (r.returncode == 1 and
                  "dtm.cooling_time" in r.stderr)
        except subprocess.TimeoutExpired:
            ok = False
        check(ok, f"dtm.cooling_time = {bad} is rejected quickly")

    # A trace stride outside int range is rejected naming the key,
    # not wrapped to a small stride.
    with tempfile.TemporaryDirectory() as d:
        for bad in ("4294967297", "-4294967295", "0"):
            r = run(binary, FAST, f"run.trace_stride = {bad}",
                    f"run.trace_csv = {d}/trace.csv")
            check(r.returncode == 1 and "run.trace_stride" in r.stderr,
                  f"run.trace_stride = {bad} is rejected naming the key")

    if failures:
        print(f"\n{len(failures)} check(s) FAILED")
        return 1
    print("\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
