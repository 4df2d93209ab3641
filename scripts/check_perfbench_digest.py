#!/usr/bin/env python3
"""Fail unless a perfbench run printed its committed determinism digest.

Usage:
    scripts/check_perfbench_digest.py DIGESTS.txt RUN_OUTPUT

perfbench prints one line `digest <workload> seed <n>: <digest>` per run.
It hashes the run's simulated outcome, so any change that perturbs a
simulated draw changes it. DIGESTS.txt holds the expected lines (see
bench/perfbench_digests_seed1.txt). The run's line must equal the one
for the same workload and seed; a missing line on either side fails too.
On a mismatch, each differing `key=value` field is named with both values.
Regenerate the file on purpose when a change is meant to alter the
simulated outcome, and say why.
"""
import sys


def digest_lines(path):
    """Maps 'digest <workload> seed <n>' to the whole line."""
    out = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("digest ") and ":" in line:
                out[line.split(":", 1)[0]] = line
    return out


def fields(line):
    """Maps each `key=value` field after the line's colon to its value."""
    out = {}
    for token in line.split(":", 1)[1].split():
        key, _, value = token.partition("=")
        out[key] = value
    return out


def field_diff(want, got):
    """One line per field that differs or is missing on one side."""
    a, b = fields(want), fields(got)
    rows = []
    for key in list(a) + [k for k in b if k not in a]:
        if a.get(key) != b.get(key):
            rows.append(f"  {key}: expected {a.get(key, '(absent)')}, "
                        f"got {b.get(key, '(absent)')}")
    return rows


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    expected = digest_lines(argv[1])
    got = digest_lines(argv[2])
    if len(got) != 1:
        print(f"{argv[2]}: expected one digest line, found {len(got)}",
              file=sys.stderr)
        return 1
    (key, line), = got.items()
    want = expected.get(key)
    if want is None:
        print(f"{argv[1]} has no line for '{key}'", file=sys.stderr)
        return 1
    if line != want:
        print(f"digest mismatch for '{key}':", file=sys.stderr)
        print("\n".join(field_diff(want, line)), file=sys.stderr)
        return 1
    print(f"{key}: digest matches {argv[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
