#!/bin/bash
# Full run: the test suite, then the paper's evaluation (every
# table, figure, ablation and claim) and the microbenchmarks.
cd "$(dirname "$0")"
set -x
ctest --test-dir build 2>&1 | tee test_output.txt
{
  build/tools/tempest_sweep --paper all
  for b in build/bench/bench_micro_thermal \
           build/bench/bench_micro_issue_queue; do
    echo "===== $b ====="
    $b
    echo
  done
} 2>&1 | tee bench_output.txt
echo ALL_FINAL_RUNS_DONE
