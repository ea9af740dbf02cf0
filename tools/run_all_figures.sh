#!/usr/bin/env bash
#
# Build, test, and regenerate every paper figure in one shot.
#
#   tools/run_all_figures.sh [--jobs N] [--build-dir DIR] [--check]
#                            [--faults]
#
# Builds RelWithDebInfo, runs the full ctest suite, then runs every
# fig*/ablation*/table* bench, each fanning its recordings out over
# --jobs N workers (sim::parallelFor), with --timing so each prints its
# [sweep] throughput line. Any nonzero exit aborts the run.
#
# --check: instead of the figure run, configure a separate
# AddressSanitizer build (-DRR_SANITIZE=address, build-asan/) and run
# the tier-1 ctest suite under it. Use RR_SANITIZE=thread in the
# environment to check with ThreadSanitizer instead.
#
# --faults: instead of the figure run, exercise the fault-injection
# robustness surface end to end through the installed binaries (see
# docs/ROBUSTNESS.md): zero-fault plans are byte-identical, transient
# I/O faults are absorbed invisibly, an injected crash leaves a torn
# staging file that `rrlog repair` salvages into a replayable prefix,
# and a log-byte budget yields a partial-flagged file that replays
# with --allow-partial.

set -euo pipefail

jobs="${RR_JOBS:-$(nproc)}"
build_dir="build"
check=0
faults=0
while [[ $# -gt 0 ]]; do
    case "$1" in
        --jobs|-j) jobs="$2"; shift 2 ;;
        --jobs=*) jobs="${1#*=}"; shift ;;
        --build-dir) build_dir="$2"; shift 2 ;;
        --check) check=1; shift ;;
        --faults) faults=1; shift ;;
        *) echo "usage: $0 [--jobs N] [--build-dir DIR]" \
                "[--check] [--faults]" >&2
           exit 2 ;;
    esac
done

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

if [[ $check -eq 1 ]]; then
    sanitizer="${RR_SANITIZE:-address}"
    san_dir="build-${sanitizer:0:4}san"
    echo "== sanitizer check ($sanitizer, $san_dir) =="
    cmake -B "$san_dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DRR_SANITIZE="$sanitizer"
    cmake --build "$san_dir" -j "$(nproc)"
    ctest --test-dir "$san_dir" --output-on-failure -j "$(nproc)"
    echo "== sanitizer check passed ($sanitizer) =="
    exit 0
fi

echo "== configure + build ($build_dir, RelWithDebInfo) =="
cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j "$(nproc)"

if [[ $faults -eq 1 ]]; then
    rec=("$build_dir"/rrsim record fft --cores 2 --scale 8
         --chunk-bytes 256)
    clean="$build_dir/faults_clean.rrlog"

    echo "== faults: zero-fault plan is byte-identical =="
    "${rec[@]}" --out "$clean"
    "${rec[@]}" --faults seed=7 --out "$build_dir/faults_seeded.rrlog"
    cmp "$clean" "$build_dir/faults_seeded.rrlog"

    echo "== faults: transient I/O faults are absorbed invisibly =="
    "${rec[@]}" \
        --faults short-write=0.3,io-error=0.1,enospc=0.05,fsync-fail=1,seed=11 \
        --out "$build_dir/faults_transient.rrlog"
    cmp "$clean" "$build_dir/faults_transient.rrlog"

    echo "== faults: crash -> repair -> partial replay =="
    "${rec[@]}" --faults crash-at=700 --out "$build_dir/faults_torn.rrlog"
    test ! -e "$build_dir/faults_torn.rrlog"   # never published
    "$build_dir"/rrlog repair "$build_dir/faults_torn.rrlog.tmp" \
        "$build_dir/faults_repaired.rrlog"
    "$build_dir"/rrlog verify "$build_dir/faults_repaired.rrlog"
    "$build_dir"/rrsim replay --allow-partial \
        "$build_dir/faults_repaired.rrlog"

    echo "== faults: log budget yields a replayable partial file =="
    budget=$(( $(stat -c %s "$clean") / 2 ))
    "${rec[@]}" --faults "budget=$budget" \
        --out "$build_dir/faults_budget.rrlog"
    "$build_dir"/rrlog verify "$build_dir/faults_budget.rrlog"
    "$build_dir"/rrsim replay --allow-partial \
        "$build_dir/faults_budget.rrlog"

    rm -f "$build_dir"/faults_{clean,seeded,transient,repaired,budget}.rrlog \
          "$build_dir"/faults_torn.rrlog.tmp
    echo "== fault smoke passed =="
    exit 0
fi

echo "== ctest =="
ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"

echo "== rrlog smoke (record -> verify -> stats -> replay) =="
smoke="$build_dir/smoke.rrlog"
"$build_dir"/rrsim record fft --cores 4 --out "$smoke"
"$build_dir"/rrlog verify "$smoke"
"$build_dir"/rrlog stats "$smoke"
"$build_dir"/rrsim replay "$smoke"
rm -f "$smoke"

benches=(
    table1_params
    fig1_ooo_fraction
    fig9_reordered_fraction
    fig10_inorder_blocks
    fig11_log_size
    fig12_traq_utilization
    fig13_replay_time
    fig14_scalability
    fig15_parallel_replay
    ablation_interval_cap
    ablation_snoop_table
    ablation_traq_size
    ablation_directory
)

start=$SECONDS
for bench in "${benches[@]}"; do
    echo
    echo "== $bench (--jobs $jobs) =="
    if [[ "$bench" == "table1_params" ]]; then
        # Prints static structure sizes; no sweep options.
        "$build_dir/bench/$bench"
    else
        "$build_dir/bench/$bench" --jobs "$jobs" --timing
    fi
done

echo
echo "== all figures done in $((SECONDS - start))s (jobs=$jobs) =="
