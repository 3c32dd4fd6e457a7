#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the BENCHMARK.json command (at its run_seconds) once per seed on one
workload and prints, for each end-to-end metric, its median and its
interquartile range as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound. With
--sets N it runs the seeds N times and also prints how far each later
set's median moved from the first set's, in the metric's worse
direction. Run from the repository root:

    python3 perfbench/spread.py --workload deep_window --seeds 0-9 --sets 2

A seed may repeat (--seeds 3,3,3,3,3) to see host noise alone, without
the differences between the programs of different seeds.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_set(bench, workload, seeds):
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in seeds:
        cmd = bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        diag = json.loads(lines[-2])["diagnostics"] if len(lines) > 1 else {}
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        shown = " ".join(f"{n}={values[n][-1]:.4g}" for n in values)
        print(f"seed {seed}: {shown} cpu_util={diag.get('cpu_util', 0):.3f}", flush=True)
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    medians = []
    for n in range(args.sets):
        values = run_set(bench, args.workload, args.seeds)
        print(f"\n{args.workload}, set {n + 1}: {len(args.seeds)} runs")
        medians.append({})
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            medians[-1][m["name"]] = med
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread < m["bound"] / 3 else "WIDE"
            line = (f"  {m['name']:12s} median {med:10.4f} {m['unit']:9s} "
                    f"IQR/median {spread:.4f}  bound {m['bound']}  {verdict}")
            if n > 0:
                first = medians[0][m["name"]]
                worse = (med - first) / first
                if m["better"] == "higher":
                    worse = -worse
                verdict = "ok" if worse <= m["bound"] else "FAIL"
                line += f"  worse than set 1 by {worse:+.4f} {verdict}"
            print(line, flush=True)
        print()


if __name__ == "__main__":
    main()
