#!/usr/bin/env python3
"""Self-test for tempest_lint.py.

Every known-bad fixture must be flagged by the right checker with
the right diagnostic; the good fixtures and the real tree must lint
clean.  Run directly or through ctest (registered as `lint_self_test`
and `lint_tree` in tools/CMakeLists.txt).
"""

import json
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
LINT = os.path.join(HERE, "..", "tempest_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")
ROOT = os.path.abspath(os.path.join(HERE, "..", "..", ".."))

# fixture -> (expected exit, [required diagnostic substrings])
# or    -> (expected exit, [substrings], [extra lint arguments])
CASES = {
    "bad_lock_unguarded_access.cc": (1, [
        "[lock]",
        "member 'count_' (GUARDED_BY mutex_) referenced without "
        "holding 'mutex_'",
        "member 'value' (GUARDED_BY slotMutex)",
    ]),
    "bad_lock_requires_caller.cc": (1, [
        "call to 'pushLocked' REQUIRES(mutex_) but 'mutex_' is not "
        "held here",
    ]),
    "bad_lock_lambda_capture.cc": (1, [
        "member 'value_' (GUARDED_BY mutex_) referenced without "
        "holding 'mutex_'",
    ]),
    "good_lock_discipline.cc": (0, []),
    "bad_proto_missing_read.cc": (1, [
        "encodeTicket writes key 'legacy_flag' that parseTicket "
        "never reads",
        "parseTicket reads key 'rush' that encodeTicket never "
        "writes",
    ]),
    "bad_proto_order_mismatch.cc": (1, [
        "key order differs between encodeProbe and parseProbe",
    ]),
    "bad_proto_blob_drift.cc": (1, [
        "blob codec sequences diverge between encodeSampleBlob and "
        "decodeSampleBlob at call #2",
    ]),
    "good_proto_roundtrip.cc": (0, []),
    "bad_chunk_duplicate.cc": (1, [
        "chunk FourCC 'DUPE' already used at",
    ]),
    "good_chunk_registered.cc": (0, [],
                                 ["--chunk-registry",
                                  os.path.join(
                                      FIXTURES,
                                      "chunk_registry_good.json")]),
    "bad_empty_reason.cc": (1, [
        "ckpt:skip() needs a reason",
        "proto:skip(op) must use the form "
        "proto:skip(<key>: <reason>)",
    ]),
    "bad_missing_load_member.cc": (1, [
        "class MissingLoadMember",
        "'lost_' is not referenced in loadState",
    ]),
    "bad_missing_save_member.cc": (1, [
        "class MissingSaveMember",
        "'orphan_' is not referenced in saveState",
    ]),
    "bad_bulk_dropped_array.cc": (1, [
        "class BulkDroppedArray",
        "'mid_' of bulk group 'soa'",
        "is not referenced in saveState",
    ]),
    "bad_bulk_not_blobbed.cc": (1, [
        "class BulkNotBlobbed",
        "'mid_' of bulk group 'soa'",
        "not written by a blob(...) call in loadState",
    ]),
    "bad_order_mismatch.cc": (1, [
        "class OrderMismatch",
        "member order differs between saveState and loadState",
    ]),
    "bad_serializer_type_mismatch.cc": (1, [
        "class SerializerTypeMismatch",
        "serializer call sequences diverge",
    ]),
    "bad_random_device.cc": (1, [
        "banned identifier 'random_device'",
    ]),
    "bad_time_call.cc": (1, [
        "banned call 'time()'",
        "banned call 'srand()'",
        "banned call 'rand()'",
    ]),
    "bad_unordered_iteration.cc": (1, [
        "iteration over unordered container",
    ]),
    "bad_pointer_keyed_map.cc": (1, [
        "pointer-keyed std::map",
    ]),
    "bad_header_hygiene.hh": (1, [
        "no include guard",
        "'using namespace' in a header",
    ]),
    "good_annotated.cc": (0, []),
    "good_bulk_group.cc": (0, []),
    "good_clean.cc": (0, []),
}


def live_checkpoint_version():
    path = os.path.join(ROOT, "src", "sim", "checkpoint",
                        "checkpoint.hh")
    with open(path) as f:
        return int(re.search(r"kCheckpointVersion\s*=\s*(\d+)",
                             f.read()).group(1))


def drift_case(tmpdir):
    """bad_chunk_version_drift.cc against its registry baseline,
    pinned at whatever version the live tree is at: the sequence
    drifted but the version did not, so the bump-the-version
    diagnostic must fire at any version."""
    version = live_checkpoint_version()
    with open(os.path.join(FIXTURES, "chunk_registry_drift.json")) as f:
        registry = json.load(f)
    registry["checkpoint_version"] = version
    path = os.path.join(tmpdir, "chunk_registry_drift.json")
    with open(path, "w") as f:
        json.dump(registry, f)
    return (1, [
        "class DriftClass changed its serializer call sequence",
        "kCheckpointVersion is still %d" % version,
    ], ["--chunk-registry", path])


def run_lint(args):
    return subprocess.run(
        [sys.executable, LINT] + args,
        capture_output=True, text=True)


def main():
    with tempfile.TemporaryDirectory() as tmpdir:
        cases = dict(CASES)
        cases["bad_chunk_version_drift.cc"] = drift_case(tmpdir)
        return run_cases(cases)


def run_cases(cases):
    failures = []
    backend = ["--backend", os.environ.get("TEMPEST_LINT_BACKEND", "text")]

    for fixture, case in sorted(cases.items()):
        want_rc, want_msgs = case[0], case[1]
        extra = list(case[2]) if len(case) > 2 else []
        path = os.path.join(FIXTURES, fixture)
        r = run_lint(["--all", "--root", ROOT] + backend + extra +
                     [path])
        label = "fixture %s" % fixture
        if r.returncode != want_rc:
            failures.append("%s: expected exit %d, got %d\nstdout:\n%s"
                            "\nstderr:\n%s"
                            % (label, want_rc, r.returncode, r.stdout,
                               r.stderr))
            continue
        for msg in want_msgs:
            if msg not in r.stdout:
                failures.append("%s: diagnostic %r not found in:\n%s"
                                % (label, msg, r.stdout))

    # Clean-fixture/annotation behavior verified; the real tree must
    # also pass every checker (the gate the CI lint job enforces).
    r = run_lint(["--all", "--root", ROOT] + backend)
    if r.returncode != 0:
        failures.append("real tree should lint clean, got exit %d:\n%s%s"
                        % (r.returncode, r.stdout, r.stderr))

    if failures:
        print("run_lint_tests: %d failure(s)" % len(failures))
        for f in failures:
            print("---\n" + f)
        return 1
    print("run_lint_tests: %d fixtures + tree OK" % len(cases))
    return 0


if __name__ == "__main__":
    sys.exit(main())
