#!/usr/bin/env python3
"""Fail unless a bench result reproduces its committed baseline.

Usage:
    scripts/compare_bench_baseline.py BASELINE.json RESULT.json [FIELD ...]

Compares the "results" objects of two bench JSON files field by field and
exits 1 on any difference, including a field present in only one of them.
The FIELD arguments name results to skip; `wall_s` (host time) is always
skipped. Both files print numbers the same way, so equal parsed values
mean equal printed values.
"""
import json
import sys


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        baseline = json.load(f)["results"]
    with open(argv[2]) as f:
        result = json.load(f)["results"]
    skip = {"wall_s", *argv[3:]}
    fields = sorted((baseline.keys() | result.keys()) - skip)
    mismatches = []
    for field in fields:
        want = baseline.get(field, "<missing>")
        got = result.get(field, "<missing>")
        if want != got:
            mismatches.append(f"  {field}: baseline {want}, got {got}")
    if mismatches:
        print(f"{argv[2]} differs from {argv[1]}:", file=sys.stderr)
        print("\n".join(mismatches), file=sys.stderr)
        return 1
    print(f"{argv[2]} matches {argv[1]} ({len(fields)} fields)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
