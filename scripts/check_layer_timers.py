#!/usr/bin/env python3
"""Fails when a per-layer metric that perfbench reads off a gsn_* timer
comes back missing or 0.

Reads the saved standard output of one traced perfbench run, e.g.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 24 \\
        --trace 1 > ingest.out
    python3 scripts/check_layer_timers.py ingest.out

The last line of that output is the result object
({"correct": ..., "metrics": {"vsensor.deliver_us": {"value": ...}}}).
perfbench reads the program's histograms through get-or-create
GetHistogram, so a renamed family, a changed label set or a timed scope
that stopped observing does not fail the run: the metric silently reads
0. Exit code 0 = pass, 1 = a metric is missing or 0, or unusable output.
"""

import argparse
import json
import sys

# Every per-layer metric perfbench computes from a gsn_*_micros
# histogram. Each one read non-zero on the traced `ingest` run (seed 1)
# of the commit that introduced this check and of its parent.
TIMER_METRICS = (
    "vsensor.window_sql_us",           # gsn_pipeline_stage_micros{stage=window_sql}
    "vsensor.stream_sql_us",           # gsn_pipeline_stage_micros{stage=stream_sql}
    "vsensor.deliver_us",              # gsn_pipeline_stage_micros{stage=deliver}
    "vsensor.queue_wait_share",        # gsn_queue_wait_micros / gsn_tick_micros
    "storage.tick_storage_us",         # gsn_tick_phase_micros{phase=storage}
    "sql.parse_us",                    # gsn_query_parse_micros
    "sql.exec_us",                     # gsn_query_exec_micros
    "container.notify_fanout_us",      # gsn_notification_fanout_micros
    "bench.tick_span_vs_gsn_tick_share",     # gsn_tick_micros
    "bench.handle_span_vs_gsn_sql_share",    # gsn_query_{parse,exec}_micros
)

# The two cross-checks are (outside span - gsn timer) / outside span, so
# an empty gsn_* timer makes them read exactly 1.0 rather than 0. The
# tick cross-check read ~0.002 and the handle cross-check ~-0.4 on the
# parent commit; anything at or above this bound means the timer side
# is (nearly) empty.
CROSS_CHECKS = (
    "bench.tick_span_vs_gsn_tick_share",
    "bench.handle_span_vs_gsn_sql_share",
)
MAX_CROSS_CHECK_SHARE = 0.9


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
        metrics = result["metrics"]
    except (ValueError, KeyError, TypeError) as e:
        print(f"FAIL: last line is not a perfbench result ({e})")
        return 1
    if not result.get("correct", False):
        print("FAIL: perfbench reported correct=false")
        return 1

    failures = []
    for name in TIMER_METRICS:
        try:
            value = float(metrics[name]["value"])
        except (KeyError, TypeError, ValueError):
            failures.append(f"{name} missing (was the run traced?)")
            continue
        if value == 0:
            failures.append(f"{name} is 0")
        elif name in CROSS_CHECKS and value >= MAX_CROSS_CHECK_SHARE:
            failures.append(f"{name} {value:.3f} >= {MAX_CROSS_CHECK_SHARE} "
                            f"(gsn_* side empty?)")
        else:
            print(f"ok: {name} {value:.4g}")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
