#!/usr/bin/env python3
"""Check that the benchmark repeats: run each workload several times.

    python3 perfbench/steady.py [--runs 10] [--workloads record,serve]
                                [--seconds S] [--trace 0|1] [--seed0 1]

Runs perfbench/run.py --runs times per workload, each run with its own
seed, alternating the workload order between rounds so no workload
always runs after the same neighbour. For every metric it prints the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median. It flags a spread above the metric's bound in
BENCHMARK.json, and any change at all in a deterministic value
(`log_bytes_per_kinst` and every per-layer `count`). Exits 1 on a flag
or a failed run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Values that depend only on the code, never on the host.
DETERMINISTIC_E2E = {"log_bytes_per_kinst"}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    defs = bench["per_layer" if args.trace else "end_to_end"]

    values = {w: {} for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            seed = args.seed0 + i
            t0 = time.monotonic()
            run = run_once(w, seed, seconds, args.trace)
            for name, v in run.items():
                values[w].setdefault(name, []).append(v)
            tracked = " ".join(f"{d['name']}={run[d['name']]:.5g}"
                               for d in defs if "bound" in d)
            print(f"round {i + 1}/{args.runs}: {w} seed {seed} done in "
                  f"{time.monotonic() - t0:.1f} s {tracked}", flush=True)

    flags = 0
    for w in workloads:
        print(f"\n{w}: {args.runs} runs of {seconds} s")
        print(f"  {'metric':30} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'spread':>8} {'bound':>6}")
        for d in defs:
            vals = values[w].get(d["name"], [])
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = d.get("bound")
            note = ""
            if bound is not None and spread > bound:
                note = "  SPREAD ABOVE BOUND"
            elif bound is not None and spread > bound / 3:
                note = "  (above a third of the bound)"
            deterministic = (d["name"] in DETERMINISTIC_E2E
                             or d["unit"] == "count")
            if deterministic and len(set(vals)) > 1:
                note = "  NOT DETERMINISTIC"
            if "ABOVE" in note or "NOT" in note:
                flags += 1
            print(f"  {d['name']:30} {med:12.5g} {q1:12.5g} {q3:12.5g}"
                  f" {spread:8.4f} {bound if bound is not None else '':>6}"
                  f"{note}")
    print(f"\n{flags} flagged")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
