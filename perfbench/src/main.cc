/**
 * @file
 * `rrbench`: the repository benchmark's program. One run measures one
 * workload for a fixed time and prints every metric by name with its
 * unit, then, as its last line, one JSON object:
 *
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
 *
 * Untraced runs (--trace 0) report the end-to-end metrics; traced runs
 * (--trace 1) report the per-layer ones and write a Chrome trace.
 * perfbench/run.py builds this binary and forwards its arguments.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "common.hh"

namespace
{

using namespace rrbench;

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Reported by every untraced run, on every workload. */
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"op_cost_p50", "ratio"},
    {"op_cost_p90", "ratio"},
    {"peak_rss_mib", "MiB"},
    {"log_bytes_per_kinst", "B/kinst"},
};

/**
 * Reported by every traced run. A layer the workload does not run
 * reads 0.
 */
const std::vector<MetricDef> kPerLayer = {
    {"workloads.build_ms", "ms"},
    {"machine.init_ms", "ms"},
    {"machine.run_ms", "ms"},
    {"machine.ns_per_sim_inst", "ns"},
    {"machine.sim_cycles", "count"},
    {"machine.sim_instructions", "count"},
    {"mem.bus_gets", "count"},
    {"mem.bus_getm", "count"},
    {"mem.c2c_transfers", "count"},
    {"mem.l1_misses", "count"},
    {"rnr.intervals", "count"},
    {"rnr.reordered_loads", "count"},
    {"rnr.dependency_edges", "count"},
    {"rnr.terminations_conflict", "count"},
    {"logstore.append_ms", "ms"},
    {"logstore.finish_ms", "ms"},
    {"logstore.write_mib_per_s", "MiB/s"},
    {"logstore.open_ms", "ms"},
    {"logstore.decode_ms", "ms"},
    {"logstore.decode_mib_per_s", "MiB/s"},
    {"patcher.patch_ms", "ms"},
    {"replay.engine_ms", "ms"},
    {"replay.ns_per_interval", "ns"},
    {"replay.utilization", "ratio"},
    {"replay.measured_speedup", "ratio"},
    {"replay.words_committed", "count"},
    {"replay.verify_ms", "ms"},
    {"svc.overhead_ms_p50", "ms"},
    {"svc.overhead_ms_p90", "ms"},
    {"svc.exec_ms_p50", "ms"},
    {"svc.exec_ms_p90", "ms"},
    {"svc.daemon_cpu_ms_per_job", "ms"},
    {"svc.gen_lag_ms_p90", "ms"},
    {"bench.op_ms_p50", "ms"},
    {"bench.op_ms_p90", "ms"},
    {"bench.kips", "kinst/s"},
    {"bench.goodput_ops_per_s", "1/s"},
    {"bench.probe_ms_p50", "ms"},
    {"bench.trace_overhead", "ratio"},
    {"bench.span_coverage", "ratio"},
};

/** Raw wall-clock figures of the op, shown after the tracked ones. */
const std::vector<MetricDef> kRawWall = {
    {"bench.op_ms_p50", "ms"},
    {"bench.op_ms_p90", "ms"},
    {"bench.kips", "kinst/s"},
    {"bench.goodput_ops_per_s", "1/s"},
};

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: rrbench --workload record|replay|serve [--seed N]\n"
        "               [--seconds S] [--trace 0|1] [--ops N]\n"
        "               [--setup-reps N]\n"
        "       rrbench --workload record|replay --one-op FILE\n");
    std::exit(2);
}

std::string
fmt(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    // Run from the repository root; perfbench/run.py builds here.
    const std::string work_dir = ".bench_build/run";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage();
        const std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload")
            o.workload = val;
        else if (arg == "--seed")
            o.seed = std::strtoull(val.c_str(), &end, 10);
        else if (arg == "--seconds")
            o.seconds = std::strtod(val.c_str(), &end);
        else if (arg == "--trace" && (val == "0" || val == "1"))
            o.trace = val == "1";
        else if (arg == "--ops")
            o.maxOps = std::strtoull(val.c_str(), &end, 10);
        else if (arg == "--setup-reps")
            o.setupReps =
                static_cast<std::uint32_t>(std::strtoul(val.c_str(), &end, 10));
        else if (arg == "--one-op")
            o.oneOpFile = val;
        else
            usage();
        if (end && *end)
            usage();
    }
    if (o.seconds <= 0.0)
        usage();
    if (!o.oneOpFile.empty()) {
        if (o.workload != "record" && o.workload != "replay")
            usage();
        return runOneOp(o);
    }
    Report (*run)(const Options &) = nullptr;
    if (o.workload == "record")
        run = runRecord;
    else if (o.workload == "replay")
        run = runReplay;
    else if (o.workload == "serve")
        run = runServe;
    else
        usage();

    installCleanup();
    o.tmpDir = work_dir + "/rrb-" + std::to_string(::getpid());
    o.traceFile = work_dir + "/trace-" + o.workload + "-" +
                  std::to_string(o.seed) + ".json";
    if (!makeDirs(o.tmpDir)) {
        std::fprintf(stderr, "rrbench: cannot create %s\n",
                     o.tmpDir.c_str());
        return 1;
    }
    registerTempDir(o.tmpDir);

    Report r;
    try {
        r = run(o);
    } catch (const std::exception &e) {
        r.error(std::string("exception: ") + e.what());
    }
    cleanupAll();

    const bool correct = r.errors.empty() && r.failed == 0;
    for (const std::string &e : r.errors)
        std::printf("FAIL: %s\n", e.c_str());
    std::printf("workload %s, seed %llu: %llu ops, %llu failed\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    if (r.attempted == 0)
        return 1; // set-up failed: nothing was measured

    const auto &defs = o.trace ? kPerLayer : kEndToEnd;
    std::string json = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") + ", \"attempted\": " +
                       std::to_string(r.attempted) + ", \"failed\": " +
                       std::to_string(r.failed) + ", \"metrics\": {";
    bool complete = true;
    for (std::size_t i = 0; i < defs.size(); ++i) {
        const auto it = r.metrics.find(defs[i].name);
        if (it == r.metrics.end() && !o.trace) {
            std::printf("FAIL: metric %s was not measured\n", defs[i].name);
            complete = false;
        }
        const double v = it == r.metrics.end() ? 0.0 : it->second;
        std::printf("  %-28s %14s %s\n", defs[i].name, fmt(v).c_str(),
                    defs[i].unit);
        json += std::string(i ? ", " : "") + "\"" + defs[i].name +
                "\": {\"value\": " + fmt(v) + ", \"unit\": \"" +
                defs[i].unit + "\"}";
    }
    if (!o.trace) {
        // Raw wall clock, printed for people; not tracked because the
        // shared host's phases move it by more than any bound.
        for (const MetricDef &d : kRawWall) {
            const auto it = r.metrics.find(d.name);
            if (it != r.metrics.end())
                std::printf("  %-28s %14s %s (raw, untracked)\n", d.name,
                            fmt(it->second).c_str(), d.unit);
        }
    }
    std::printf("  %-28s %14s ratio\n", "error_rate",
                fmt(static_cast<double>(r.failed) /
                    static_cast<double>(r.attempted))
                    .c_str());
    if (o.trace)
        std::printf("  trace written to %s\n", o.traceFile.c_str());
    std::printf("%s}}\n", json.c_str());
    return correct && complete ? 0 : 1;
}
