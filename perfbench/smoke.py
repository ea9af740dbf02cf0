#!/usr/bin/env python3
"""Smoke test of the benchmark itself: a few ops per workload.

    python3 perfbench/smoke.py

Runs every workload in BENCHMARK.json untraced and traced with a handful
of ops and one set-up, and checks that each run is correct and reports
exactly the metrics BENCHMARK.json lists for its mode, with the listed
units, finite values, no zero among the end-to-end ones, and no zero
among the per-layer ones its workload measures (MEASURED below), so a
renamed span or series key cannot silently read 0. Takes about 20 s
once built; exits 1 if any check fails.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics (names or name prefixes) each workload's traced run
# must fill with a non-zero value. bench.trace_overhead is a difference
# and may read 0.
MEASURED = {
    "record": ("workloads.", "machine.", "mem.", "rnr.",
               "logstore.append_ms", "logstore.finish_ms",
               "logstore.write_mib_per_s"),
    "replay": ("workloads.build_ms", "machine.init_ms", "logstore.open_ms",
               "logstore.decode_ms", "logstore.decode_mib_per_s",
               "patcher.", "replay."),
    "serve": ("svc.",),
}
COMMON = ("bench.op_ms_p50", "bench.op_ms_p90", "bench.kips",
          "bench.goodput_ops_per_s", "bench.probe_ms_p50",
          "bench.span_coverage")


def must_be_nonzero(workload, trace, name):
    if trace == 0:
        return True
    return name.startswith(MEASURED.get(workload, ()) + COMMON)


def check(workload, trace, defs):
    ops = "100" if workload == "serve" else "3"
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--ops", ops, "--setup-reps", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    where = f"{workload} --trace {trace}"
    if proc.returncode or not lines:
        sys.stdout.write(proc.stdout)
        return [f"{where}: exit {proc.returncode}"]
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed"):
        errors.append(f"{where}: incorrect run")
    metrics = result.get("metrics", {})
    want = {d["name"]: d["unit"] for d in defs}
    if set(metrics) != set(want):
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(want) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(want))}")
    for name, m in metrics.items():
        if name in want and m.get("unit") != want[name]:
            errors.append(f"{where}: {name} unit {m.get('unit')}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"{where}: {name} = {v!r}")
        elif v == 0 and must_be_nonzero(workload, trace, name):
            errors.append(f"{where}: {name} reads 0")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            errors += check(w["name"], trace, bench[key])
            print(f"{w['name']} --trace {trace}: checked", flush=True)
    for e in errors:
        print("FAIL:", e)
    print("smoke: " + ("FAILED" if errors else "OK"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
