#!/usr/bin/env python3
"""Diffs two bench JSON files, ignoring wall-clock keys.

    python3 bench/json_diff.py A.json B.json

Every bench writes a JSON object of metric keys (`--json <path>`). Simulated
metrics are deterministic, so two runs of the same code, or of two versions
that claim identical numbers, must agree on every key. Keys whose name
contains `wall` measure the host's wall clock and are skipped. Nested objects
and lists are compared leaf by leaf under dotted paths.

Exits 0 when the files agree, 1 when any compared key differs or exists on
one side only, 2 when a file cannot be read.
"""
import argparse
import json
import sys


def leaves(value, path=""):
    """Yields (dotted path, leaf value) for every scalar inside `value`."""
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from leaves(sub, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            yield from leaves(sub, f"{path}[{i}]")
    else:
        yield path, value


def load(path):
    try:
        with open(path) as f:
            return dict(leaves(json.load(f)))
    except (OSError, json.JSONDecodeError) as e:
        print(f"json_diff: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args()

    a, b = load(args.a), load(args.b)
    diffs = []
    for key in sorted(set(a) | set(b)):
        if "wall" in key:
            continue
        if key not in a or key not in b:
            diffs.append(f"{key}: only in {args.a if key in a else args.b}")
        elif a[key] != b[key]:
            diffs.append(f"{key}: {a[key]!r} != {b[key]!r}")
    for line in diffs:
        print(line)
    if diffs:
        print(f"json_diff: {len(diffs)} key(s) differ between {args.a} and {args.b}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
