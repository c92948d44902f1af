#!/usr/bin/env python3
"""Fail if a fresh `repro … --json` envelope differs from the committed one.

Usage: bench_gate.py FRESH COMMITTED

Both files are benchmark envelopes (DESIGN.md §19). The fresh one must
match the committed one in `artefact`, `schema`, the cell names in order,
and every cell's `counters`, value for value and type for type. `timing`,
`varying` and `wall_ns` are never compared: each producer puts its
run-to-run fields in `varying` itself.

Every difference is printed; the exit status is 1 if there is any, 0
otherwise. A change that moves a counter commits the refreshed file, so the
move shows in its diff.
"""

import json
import sys


def same(a, b):
    return a == b and type(a) is type(b)


def diff(fresh, committed):
    out = []
    for key in ("artefact", "schema"):
        if not same(fresh.get(key), committed.get(key)):
            out.append(f"{key}: {committed.get(key)!r} -> {fresh.get(key)!r}")
    names = [c["name"] for c in committed["cells"]]
    fresh_names = [c["name"] for c in fresh["cells"]]
    if fresh_names != names:
        out.append(f"cell names: {names} -> {fresh_names}")
        return out
    for new, old in zip(fresh["cells"], committed["cells"]):
        keys = list(old["counters"]) + [k for k in new["counters"] if k not in old["counters"]]
        for key in keys:
            where = f"{old['name']}.{key}"
            if key not in new["counters"]:
                out.append(f"{where}: missing from the fresh run")
            elif key not in old["counters"]:
                out.append(f"{where}: not in the committed file")
            elif not same(new["counters"][key], old["counters"][key]):
                out.append(f"{where}: {old['counters'][key]!r} -> {new['counters'][key]!r}")
    return out


def main(argv):
    if len(argv) != 3:
        print("usage: bench_gate.py FRESH COMMITTED", file=sys.stderr)
        return 2
    fresh_path, committed_path = argv[1], argv[2]
    with open(fresh_path) as f:
        fresh = json.load(f)
    with open(committed_path) as f:
        committed = json.load(f)
    out = diff(fresh, committed)
    for line in out:
        print(f"{committed_path} differs: {line}")
    if not out:
        print(f"{committed_path}: every counter matches {fresh_path}")
    return 1 if out else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
