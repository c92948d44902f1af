#!/usr/bin/env python3
"""Fail if a fresh `repro … --json` artefact differs from the committed one.

Usage: bench_gate.py FRESH COMMITTED

Both files are compared as whole JSON documents, recursively: every object
key, every list length and every scalar must be equal. Only timings are
skipped, since they vary from run to run:

* keys ending in `_ns` or `nanos` (wall-clock nanoseconds);
* `speedup` (a ratio of two timings);
* `totals.target_met` (whether a speedup met its target).

Every difference is printed with its JSON path; the exit status is 1 if
there is any, 0 otherwise. A change that moves a deterministic field
commits the refreshed file, so the move shows in its diff.
"""

import json
import sys

TIMING_PATHS = {("totals", "target_met")}


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


def show(path):
    out = ""
    for part in path:
        out += f"[{part}]" if isinstance(part, int) else f".{part}"
    return out or "."


def diff(fresh, committed, path, out):
    if isinstance(fresh, dict) and isinstance(committed, dict):
        keys = list(committed) + [k for k in fresh if k not in committed]
        for key in keys:
            sub = path + [key]
            if is_timing(sub):
                continue
            if key not in fresh:
                out.append(f"{show(sub)}: missing from the fresh run")
            elif key not in committed:
                out.append(f"{show(sub)}: not in the committed file")
            else:
                diff(fresh[key], committed[key], sub, out)
    elif isinstance(fresh, list) and isinstance(committed, list):
        if len(fresh) != len(committed):
            out.append(f"{show(path)}: {len(committed)} entries -> {len(fresh)}")
        for i, (f, c) in enumerate(zip(fresh, committed)):
            diff(f, c, path + [i], out)
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
    diff(fresh, committed, [], out)
    for line in out:
        print(f"{committed_path} differs: {line}")
    if not out:
        print(f"{committed_path}: every deterministic field matches {fresh_path}")
    return 1 if out else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
