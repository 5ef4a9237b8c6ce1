#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports run-to-run spread.

    python3 perfbench/steadiness.py --workload ingest --seeds 10 --sets 2

Run from the root of a checkout. For each set, each end-to-end metric of
BENCHMARK.json gets its median over the seeds and its spread: the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median. A spread above the metric's bound fails
the check, and one above a third of it is flagged; setup_s is exempt
from both. With two sets, the second set's median must not be worse than
the first's by more than the bound. Seeds run 1, 2, 3, ... across the
sets. Exits non-zero when a run fails or a check is violated.
"""
import argparse
import json
import statistics
import subprocess
import sys


def cpu_times():
    """(total, steal) jiffies from /proc/stat, to spot a busy host."""
    with open("/proc/stat") as stat:
        fields = [int(x) for x in stat.readline().split()[1:]]
    return sum(fields), fields[7] if len(fields) > 7 else 0


def run_once(workload, seed, seconds):
    before = cpu_times()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    after = cpu_times()
    steal = (after[1] - before[1]) / max(1, after[0] - before[0])
    if result.get("metrics"):
        summary = " ".join(f"{k}={v['value']:.4g}"
                           for k, v in result["metrics"].items())
        print(f"  seed {seed}: steal {steal:.3f} {summary}")
    if proc.returncode != 0 or not result.get("correct"):
        print(f"  seed {seed}: FAILED (exit {proc.returncode})")
        for line in proc.stderr.strip().splitlines()[-5:]:
            print(f"    {line}")
        return None
    return result["metrics"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    metrics = bench["end_to_end"]
    ok = True
    medians = []
    seed = 1
    for set_index in range(args.sets):
        values = {m["name"]: [] for m in metrics}
        for _ in range(args.seeds):
            result = run_once(args.workload, seed, bench["run_seconds"])
            seed += 1
            if result is None:
                ok = False
                continue
            for m in metrics:
                values[m["name"]].append(result[m["name"]]["value"])
        print(f"set {set_index + 1} ({args.workload}):")
        set_medians = {}
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 4:
                print(f"  {m['name']}: too few runs")
                ok = False
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            set_medians[m["name"]] = med
            flag = ""
            if m["name"] != "setup_s" and spread > m["bound"]:
                flag = "  <-- above bound"
                ok = False
            elif m["name"] != "setup_s" and spread > m["bound"] / 3:
                flag = "  <-- above bound/3"
            print(f"  {m['name']:22s} median {med:12.4f} {m['unit']:5s} "
                  f"spread {spread:6.3f} (bound {m['bound']}){flag}")
        medians.append(set_medians)
    if len(medians) == 2:
        print("second set vs first:")
        for m in metrics:
            a = medians[0].get(m["name"])
            b = medians[1].get(m["name"])
            if a is None or b is None:
                continue
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "  <-- worse than bound" if worse > m["bound"] else ""
            ok = ok and not flag
            print(f"  {m['name']:22s} {worse:+7.3f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
