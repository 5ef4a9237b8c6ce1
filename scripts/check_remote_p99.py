#!/usr/bin/env python3
"""Fails when the peer plane's remote-delivery p99 is back at the
Nagle/delayed-ACK floor.

Reads the saved standard output of one perfbench run, e.g.

    python3 perfbench/run.py --workload remote --seed 1 --seconds 24 \\
        --trace 0 > remote.out
    python3 scripts/check_remote_p99.py remote.out

The last line of that output is the result object
({"correct": ..., "metrics": {"remote_p99_ms": {"value": ...}}}).
Without TCP_NODELAY on the transport's sockets the p99 sits at 35-40 ms;
with it, single-digit milliseconds. Exit code 0 = pass, 1 = bound
exceeded or unusable output.
"""

import argparse
import json
import sys

# Sits between the 35-40 ms delayed-ACK floor and the ~7 ms p99 measured
# with TCP_NODELAY (Xeon, 4 cores), so the floor trips it and a slower
# machine still has margin.
MAX_P99_MS = 25.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", help="saved stdout of perfbench/run.py")
    args = parser.parse_args()

    with open(args.output) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        print("FAIL: empty perfbench output")
        return 1
    try:
        result = json.loads(lines[-1])
        p99 = float(result["metrics"]["remote_p99_ms"]["value"])
    except (ValueError, KeyError, TypeError) as e:
        print(f"FAIL: last line is not a perfbench result with "
              f"remote_p99_ms ({e})")
        return 1
    if not result.get("correct", False):
        print("FAIL: perfbench reported correct=false")
        return 1
    if p99 >= MAX_P99_MS:
        print(f"FAIL: remote_p99_ms {p99:.2f} >= {MAX_P99_MS:.2f} "
              f"(the ~40 ms delayed-ACK floor is back?)")
        return 1
    print(f"ok: remote_p99_ms {p99:.2f} < {MAX_P99_MS:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
