#!/usr/bin/env python3
"""Fail if a fresh `repro … --json` artefact differs from the committed one.

Usage: bench_gate.py FRESH COMMITTED

Both files are compared as whole JSON documents, recursively: every object
key, every list length and every scalar must be equal. Only fields that vary
from run to run are skipped:

* keys ending in `_ns` or `nanos` (wall-clock nanoseconds);
* `speedup` (a ratio of two timings);
* `totals.target_met` (whether a speedup met its target);
* the fields `VARYING` lists for the committed file's `artefact`.

Every difference is printed with its JSON path; the exit status is 1 if
there is any, 0 otherwise. A change that moves a deterministic field
commits the refreshed file, so the move shows in its diff.
"""

import fnmatch
import json
import sys

TIMING_PATHS = {("totals", "target_met")}

# Fields that vary from run to run although they are not timings, keyed by
# `artefact`. Each pattern is a path whose parts are matched with fnmatch;
# `*` also matches a list index.
VARYING = {
    # Pass 1 of `repro warm` starts from an empty store: worker interleaving
    # decides which duplicate-fingerprint cell persists its snapshot first,
    # so the cold run's totals, per-cell cold counts and the reductions
    # derived from them vary. The baseline and the seeded run do not.
    "warm": [
        ("run1_*",),
        ("*_reduction",),
        ("jobs", "*", "driven_cold"),
        ("jobs", "*", "tests_cold"),
    ],
    # `repro fleet`: which worker ran a job, and so the order of the
    # slowest-job table, depends on thread scheduling.
    "fleet": [
        ("report", "results", "*", "worker"),
        ("report", "slowest", "*", "job"),
        ("report", "slowest", "*", "name"),
    ],
    # `repro chaos`: the seeded store faults are drawn in the order the
    # three workers reach the store, and the journal cuts fall at seeded
    # offsets of a journal whose length depends on timing, so how many
    # faults land and how many jobs a cut leaves unfinished vary.
    "chaos": [
        ("store", "*", "injected"),
        ("journal", "resubmitted"),
        ("journal", "truncated_bytes"),
    ],
}


def is_timing(path):
    key = path[-1]
    if not isinstance(key, str):
        return False
    return (
        key.endswith("_ns")
        or key.endswith("nanos")
        or key == "speedup"
        or tuple(path) in TIMING_PATHS
    )


def is_varying(path, artefact):
    for pattern in VARYING.get(artefact, ()):
        if len(pattern) == len(path) and all(
            fnmatch.fnmatchcase(str(part), glob) for part, glob in zip(path, pattern)
        ):
            return True
    return False


def show(path):
    out = ""
    for part in path:
        out += f"[{part}]" if isinstance(part, int) else f".{part}"
    return out or "."


def diff(fresh, committed, path, out, artefact):
    if isinstance(fresh, dict) and isinstance(committed, dict):
        keys = list(committed) + [k for k in fresh if k not in committed]
        for key in keys:
            sub = path + [key]
            if is_timing(sub) or is_varying(sub, artefact):
                continue
            if key not in fresh:
                out.append(f"{show(sub)}: missing from the fresh run")
            elif key not in committed:
                out.append(f"{show(sub)}: not in the committed file")
            else:
                diff(fresh[key], committed[key], sub, out, artefact)
    elif isinstance(fresh, list) and isinstance(committed, list):
        if len(fresh) != len(committed):
            out.append(f"{show(path)}: {len(committed)} entries -> {len(fresh)}")
        for i, (f, c) in enumerate(zip(fresh, committed)):
            diff(f, c, path + [i], out, artefact)
    elif fresh != committed or type(fresh) is not type(committed):
        out.append(f"{show(path)}: {committed!r} -> {fresh!r}")


def main(argv):
    if len(argv) != 3:
        print("usage: bench_gate.py FRESH COMMITTED", file=sys.stderr)
        return 2
    fresh_path, committed_path = argv[1], argv[2]
    with open(fresh_path) as f:
        fresh = json.load(f)
    with open(committed_path) as f:
        committed = json.load(f)
    out = []
    artefact = committed.get("artefact") if isinstance(committed, dict) else None
    diff(fresh, committed, [], out, artefact)
    for line in out:
        print(f"{committed_path} differs: {line}")
    if not out:
        print(f"{committed_path}: every deterministic field matches {fresh_path}")
    return 1 if out else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
