#!/usr/bin/env python3
"""Run one workload of the repository benchmark, or all of them.

    python3 perfbench/run.py --workload record|replay|serve|all --seed N \\
        --seconds S --trace 0|1 [--ops N]

Builds the simulator libraries, `rrsim` and the `rrbench` program from
source into .bench_build/ (a no-op after the first run), then runs
`rrbench` from the repository root with the same arguments. Build output
goes to stderr, so the last line of stdout is the run's JSON result.
`--workload all` runs record, replay and serve in turn, each printing
its metrics and its own JSON line. The exit code is non-zero when the
build fails, set-up fails or any op is wrong.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("record", "replay", "serve")


def build():
    """Configure (once) and build rrbench and rrsim; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "rrbench", "rrsim"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run(args):
    """Run rrbench with @p args; @return its exit code."""
    # rrbench keeps its temp files, socket and traces under
    # .bench_build/run and starts .bench_build/rrsim as its daemon.
    child = subprocess.Popen([os.path.join(BUILD, "rrbench")] + args,
                             cwd=ROOT)

    def forward(sig, _frame):
        # rrbench stops its daemon and removes its temp files on these.
        child.send_signal(sig)
        child.wait()
        sys.exit(128 + sig)

    for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, forward)
    return child.wait()


def main():
    if not build():
        return 1
    args = sys.argv[1:]
    runs = [args]
    if "--workload" in args:
        at = args.index("--workload") + 1
        if args[at:at + 1] == ["all"]:
            runs = [args[:at] + [w] + args[at + 1:] for w in WORKLOADS]
    status = 0
    for r in runs:
        status = run(r) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
