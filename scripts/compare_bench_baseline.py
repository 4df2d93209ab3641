#!/usr/bin/env python3
"""Fail unless a bench result reproduces its committed baseline.

Usage:
    scripts/compare_bench_baseline.py BASELINE.json RESULT.json [FIELD ...]

Compares the "results" of two bench JSON files field by field and exits 1
on any difference, including a field present in only one of them.
"results" is either one object or a list of row objects keyed by their
"algorithm" field; rows are matched by that key, and a row present in only
one file is a difference. The FIELD arguments name results to skip;
`wall_s` (host time) is always skipped. Both files print numbers the same
way, so equal parsed values mean equal printed values.
"""
import json
import sys


def rows(results, path):
    """Results as {row key: {field: value}}; an object is one unnamed row."""
    if isinstance(results, dict):
        return {"": results}
    keyed = {}
    for row in results:
        key = row.get("algorithm")
        if key is None or key in keyed:
            sys.exit(f"{path}: every results row needs a unique 'algorithm'")
        keyed[key] = {f: v for f, v in row.items() if f != "algorithm"}
    return keyed


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        baseline = rows(json.load(f)["results"], argv[1])
    with open(argv[2]) as f:
        result = rows(json.load(f)["results"], argv[2])
    skip = {"wall_s", *argv[3:]}
    mismatches = []
    compared = 0
    for key in sorted(baseline.keys() | result.keys()):
        prefix = f"{key}." if key else ""
        if key not in result or key not in baseline:
            where = "result" if key not in result else "baseline"
            mismatches.append(f"  row {key}: missing from the {where}")
            continue
        want_row, got_row = baseline[key], result[key]
        for field in sorted((want_row.keys() | got_row.keys()) - skip):
            compared += 1
            want = want_row.get(field, "<missing>")
            got = got_row.get(field, "<missing>")
            if want != got:
                mismatches.append(
                    f"  {prefix}{field}: baseline {want}, got {got}")
    if mismatches:
        print(f"{argv[2]} differs from {argv[1]}:", file=sys.stderr)
        print("\n".join(mismatches), file=sys.stderr)
        return 1
    print(f"{argv[2]} matches {argv[1]} ({compared} fields)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
