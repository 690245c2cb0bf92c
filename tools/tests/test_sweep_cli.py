#!/usr/bin/env python3
"""Regression tests for tempest_sweep's flags and its --paper mode.

Flag parsing: three bugs, all of the silently-wrong variety:

  * --base-seed went through the cycle-count parser, so the valid
    seed 0 failed with "'0' is not a valid cycle count";
  * --workers was parsed with atoi, so "2x" and "1.5" silently ran
    with 2 and 1 workers;
  * --job-timeout was parsed with atof, so "abc" silently became 0
    (which turns the deadline off), "5s" became 5 and "nan" slipped
    past the >= 0 check.

Each bad value must now fail with the flag named. So must a bad
--worker-fd, which went through atoi: "abc" ran the worker loop on
descriptor 0 and "3x" on descriptor 3, exiting 1 without a word. A
flag the mode does not take was reported as a bad cycle count
("'--base-seed' is not a valid cycle count" for --cmp-scale); it
must be reported as exactly that.

Backends: --cmp-scale prints the same sweep_hash on threads
(--in-process) and on worker processes.

Smoke: every --paper section except the claims runs at
100000 cycles with --workers 1 and --workers 4; each run exits 0
and prints byte-identical stdout. The claims refuse a cycle count.

Usage: test_sweep_cli.py <tempest_sweep binary>
"""

import subprocess
import sys

SECTIONS = ("table4", "fig6", "table5", "fig7", "table6", "fig8",
            "toggle-threshold", "long-wire", "sampling")

failures = []


def check(ok, message):
    tag = "ok  " if ok else "FAIL"
    print(f"[{tag}] {message}")
    if not ok:
        failures.append(message)


def run(binary, *args):
    return subprocess.run([binary, *args], capture_output=True,
                          stdin=subprocess.DEVNULL, text=True,
                          timeout=600)


def sweep_hash(result):
    for line in result.stdout.splitlines():
        if line.startswith("sweep_hash "):
            return line.split()[1]
    return None


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: test_sweep_cli.py <tempest_sweep>")
    binary = sys.argv[1]
    scale = ("--paper-scale", "20000", "--in-process")

    r = run(binary, *scale, "--base-seed", "0")
    check(r.returncode == 0 and "sweep_hash" in r.stdout,
          f"--base-seed 0 runs (exit {r.returncode})")

    for flag, bad in (("--workers", "2x"), ("--workers", "1.5"),
                      ("--job-timeout", "abc"),
                      ("--job-timeout", "5s"),
                      ("--job-timeout", "nan")):
        r = run(binary, *scale, flag, bad)
        check(r.returncode != 0 and flag in r.stderr,
              f"{flag} {bad!r} is rejected naming the flag "
              f"(exit {r.returncode})")

    for bad in ("abc", "3x", "-1"):
        r = run(binary, "--worker-fd", bad)
        check(r.returncode != 0 and "--worker-fd" in r.stderr,
              f"--worker-fd {bad!r} is rejected naming the flag "
              f"(exit {r.returncode})")

    for args, flag in ((("--cmp-scale", "100000", "--base-seed", "3"),
                        "--base-seed"),
                       (("--cmp-scale", "--spill-dir", "/tmp"),
                        "--spill-dir"),
                       (("--paper", "fig6", "--in-process"),
                        "--in-process"),
                       (("--paper", "fig6", "--job-timeout", "5"),
                        "--job-timeout")):
        r = run(binary, *args)
        expected = f"{args[0]} does not take {flag}"
        check(r.returncode != 0 and expected in r.stderr,
              f"{' '.join(args)} reports '{expected}' "
              f"(exit {r.returncode})")

    threads = run(binary, "--cmp-scale", "20000", "--in-process",
                  "--workers", "2")
    procs = run(binary, "--cmp-scale", "20000", "--workers", "2")
    check(threads.returncode == 0 and procs.returncode == 0
          and sweep_hash(threads) is not None
          and sweep_hash(threads) == sweep_hash(procs),
          f"--cmp-scale sweep_hash on threads "
          f"({sweep_hash(threads)}) equals worker processes "
          f"({sweep_hash(procs)})")

    r = run(binary, "--paper", "claims", "100000")
    check(r.returncode != 0 and "cycle counts" in r.stderr,
          f"--paper claims refuses a cycle count "
          f"(exit {r.returncode})")
    r = run(binary, "--paper", "nosuchsection")
    check(r.returncode != 0 and "unknown section" in r.stderr,
          f"--paper rejects an unknown section "
          f"(exit {r.returncode})")

    for section in SECTIONS:
        one = run(binary, "--paper", section, "100000",
                  "--workers", "1")
        four = run(binary, "--paper", section, "100000",
                   "--workers", "4")
        check(one.returncode == 0 and four.returncode == 0
              and "== " in one.stdout and one.stdout == four.stdout,
              f"--paper {section} prints the same at 1 and 4 "
              f"workers (exit {one.returncode}, {four.returncode})")

    if failures:
        print(f"\n{len(failures)} check(s) FAILED")
        return 1
    print("\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
