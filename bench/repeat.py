#!/usr/bin/env python3
"""Noise calibration: run the benchmark RUNS times per workload, each with
another seed, and print per end-to-end metric the median and the spread
(interquartile range over median, as the acceptance check computes it, and
max-min over median). REPEATABILITY.md records one such table.

usage, from the repository root:  python3 bench/repeat.py [runs] [first-seed]
"""
import json
import statistics
import subprocess
import sys

runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
first = int(sys.argv[2]) if len(sys.argv) > 2 else 1
bench = json.load(open("BENCHMARK.json"))

print("| workload | metric | median | IQR/median | (max-min)/median | bound |")
print("|---|---|---:|---:|---:|---:|")
for w in bench["workloads"]:
    values = {}
    for seed in range(first, first + runs):
        cmd = bench["command"] + ["--workload", w["name"], "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        verdict = json.loads(out.strip().splitlines()[-1])
        assert verdict["correct"] and verdict["failed"] == 0, (w["name"], seed, verdict)
        for name, m in verdict["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        print(f"| {w['name']} | {m['name']} | {med:.6g} | {(q3 - q1) / med:.1%} "
              f"| {(max(v) - min(v)) / med:.1%} | {m['bound']:.0%} |", flush=True)
