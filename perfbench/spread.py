#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workloads a,b]
                                [--out FILE] [--against FILE]

Runs every workload once per seed (seeds first-seed .. first-seed+runs-1),
then prints, per workload and end-to-end metric, the median and the spread:
the distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median. Each spread is checked against the metric's
bound from BENCHMARK.json and against a third of it; a spread above the
bound is marked OVER, one above a third of it WIDE. With --against, each
median is also compared with the same workload's median in an earlier
--out file, and a median worse by more than the bound is marked WORSE.
Run from the root of a memfp checkout. Raw results, with each run's notes
(pass times, host steal) and elapsed seconds, go to --out (default
.bench_work/spread.json).
Exits 1 if anything is marked.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_workload(spec, workload, seed):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    start = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n"
                 f"{out.stdout}{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect\n{out.stdout}")
    result["notes"] = lines[:-1]
    result["elapsed_s"] = time.monotonic() - start
    return result


def main():
    spec = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", default=".bench_work/spread.json")
    parser.add_argument("--against")
    args = parser.parse_args()

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.load(open(args.against)) if args.against else {}
    raw = {}
    clean = True
    for workload in args.workloads.split(","):
        runs = [run_workload(spec, workload, seed)
                for seed in range(args.first_seed, args.first_seed + args.runs)]
        raw[workload] = runs
        print(f"{workload} ({args.runs} seeds)")
        for name, metric in metrics.items():
            bound = metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            mid = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / mid if mid else float("inf")
            marks = []
            if spread > bound:
                marks.append("OVER")
            elif spread > bound / 3:
                marks.append("WIDE")
            if workload in earlier:
                before = statistics.median(
                    r["metrics"][name]["value"] for r in earlier[workload])
                change = (mid - before) / before
                worse = change if metric["better"] == "lower" else -change
                marks.append(f"vs earlier {change:+.4f}")
                if worse > bound:
                    marks.append("WORSE")
            clean = clean and not {"OVER", "WIDE", "WORSE"} & set(marks)
            print(f"  {name:16s} median {mid:<14.6g} spread {spread:7.4f}"
                  f"  (bound {bound:.2f}, /3 {bound / 3:.4f})  "
                  + " ".join(marks))
        sys.stdout.flush()
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(raw, f, indent=1)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
