#include "bench/common.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include <unistd.h>

#include "rnr/logstore.hh"
#include "sim/task_pool.hh"
#include "sim/trace.hh"
#include "svc/protocol.hh"

namespace rrbench
{

using namespace rr;

const std::vector<App> &
apps()
{
    static const std::vector<App> suite = {
        {"barnes", 8},   {"cholesky", 8}, {"fft", 8},
        {"fmm", 16},     {"lu", 24},       {"ocean", 2},
        {"radix", 16},   {"raytrace", 24}, {"water-nsq", 8},
        {"water-sp", 16},
    };
    return suite;
}

std::uint64_t
Recorded::countedMem() const
{
    return hubCounter("counted_mem");
}

rnr::LogStats
Recorded::logStats(int policy) const
{
    rnr::LogStats stats;
    for (const auto &log : result.logs.at(policy))
        stats.accumulate(log);
    return stats;
}

std::uint64_t
Recorded::recorderCounter(int policy, const std::string &c) const
{
    std::uint64_t sum = 0;
    for (sim::CoreId core = 0; core < machine->config().numCores; ++core)
        sum += machine->hub(core).recorder(policy).stats().counterValue(c);
    return sum;
}

std::uint64_t
Recorded::hubCounter(const std::string &c) const
{
    std::uint64_t sum = 0;
    for (sim::CoreId core = 0; core < machine->config().numCores; ++core)
        sum += machine->hub(core).stats().counterValue(c);
    return sum;
}

Recorded
record(const App &app, std::uint32_t cores,
       std::vector<sim::RecorderConfig> policies,
       sim::CoherenceKind coherence)
{
    workloads::WorkloadParams wp;
    wp.numThreads = cores;
    wp.scale = app.scale;
    Recorded r;
    r.workload = workloads::buildKernel(app.name, wp);

    sim::MachineConfig cfg;
    cfg.numCores = cores;
    cfg.coherence = coherence;
    r.machine = std::make_unique<machine::Machine>(
        cfg, r.workload.program, policies);
    r.initial = r.machine->initialMemory();
    r.result = r.machine->run(5'000'000'000ULL);
    return r;
}

namespace
{

[[noreturn]] void
benchUsage(const char *prog)
{
    std::fprintf(stderr,
                 "usage: %s [--jobs N] [--timing] [--stats-json FILE]"
                 " [--coherence K]\n"
                 "  --jobs N           concurrent recordings, 0..256 "
                 "(default 0: all host cores; env RR_JOBS)\n"
                 "  --coherence K      coherence backend: snoopy "
                 "(default) or directory\n"
                 "  --timing           print wall-clock and simulated-"
                 "instruction throughput\n"
                 "  --stats-json FILE  export aggregated recording "
                 "stats as JSON\n"
                 "event tracing: set RR_TRACE=FILE.\n",
                 prog);
    std::exit(2);
}

/** Digits only, in [0, svc::kMaxJobs]; anything else calls @p usage. */
std::uint32_t
parseJobCount(const std::string &text, const char *prog, UsageFn usage)
{
    if (text.empty())
        usage(prog);
    std::uint64_t v = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            usage(prog);
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
        if (v > svc::kMaxJobs)
            usage(prog);
    }
    return static_cast<std::uint32_t>(v);
}

} // namespace

std::uint32_t
jobsFromEnv(const char *prog, UsageFn usage)
{
    const char *env = std::getenv("RR_JOBS");
    return env == nullptr || *env == '\0' ? 0
                                          : parseJobCount(env, prog, usage);
}

bool
jobsFlag(int argc, char **argv, int &i, std::uint32_t &jobs, UsageFn usage)
{
    const std::string arg = argv[i];
    if (arg.rfind("--jobs=", 0) == 0) {
        jobs = parseJobCount(arg.substr(7), argv[0], usage);
        return true;
    }
    if (arg != "--jobs" && arg != "-j")
        return false;
    if (i + 1 >= argc)
        usage(argv[0]);
    jobs = parseJobCount(argv[++i], argv[0], usage);
    return true;
}

BenchOptions
parseBenchOptions(int argc, char **argv)
{
    BenchOptions o;
    o.jobs = jobsFromEnv(argv[0], benchUsage);
    for (int i = 1; i < argc; ++i) {
        if (jobsFlag(argc, argv, i, o.jobs, benchUsage))
            continue;
        const std::string arg = argv[i];
        if (arg == "--timing") {
            o.timing = true;
        } else if (arg == "--stats-json" && i + 1 < argc) {
            o.statsJson = argv[++i];
        } else if (arg.rfind("--stats-json=", 0) == 0) {
            o.statsJson = arg.substr(13);
        } else if (arg == "--coherence" && i + 1 < argc) {
            if (!sim::parseCoherenceKind(argv[++i], o.coherence))
                benchUsage(argv[0]);
        } else if (arg.rfind("--coherence=", 0) == 0) {
            if (!sim::parseCoherenceKind(arg.substr(12), o.coherence))
                benchUsage(argv[0]);
        } else {
            benchUsage(argv[0]);
        }
    }
    sim::TraceSink::openFromEnv();
    // End the trace's JSON document however the bench exits.
    if (sim::TraceSink::enabled())
        std::atexit([] { sim::TraceSink::close(); });
    return o;
}

std::vector<Recorded>
recordAll(const std::vector<RecordJob> &jobs, const BenchOptions &opt)
{
    std::vector<Recorded> out(jobs.size());
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint32_t workers =
        sim::parallelFor(opt.jobs, jobs.size(), [&](std::size_t i) {
            const sim::TraceJobScope trace(i, jobs[i].app.name);
            out[i] = record(jobs[i].app, jobs[i].cores, jobs[i].policies,
                            jobs[i].coherence);
        });
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    if (opt.timing) {
        std::uint64_t instructions = 0;
        for (const Recorded &r : out)
            instructions += r.result.totalInstructions;
        std::printf("[sweep] %zu jobs on %u workers: %.2fs wall, "
                    "%.1fM simulated instructions, %.2fM instr/s\n",
                    jobs.size(), workers, wall,
                    static_cast<double>(instructions) / 1e6,
                    wall > 0.0 ? static_cast<double>(instructions) /
                                     wall / 1e6
                               : 0.0);
    }
    if (!opt.statsJson.empty()) {
        sim::StatSet aggregated("sweep");
        for (const Recorded &r : out) {
            std::vector<const sim::StatSet *> sets;
            r.machine->collectStats(sets);
            for (const sim::StatSet *s : sets)
                aggregated.mergeFrom(*s);
        }
        std::ofstream os(opt.statsJson);
        if (os) {
            sim::writeStatsJson(os, {&aggregated});
            std::printf("[stats] saved %s\n", opt.statsJson.c_str());
        } else {
            std::fprintf(stderr, "[stats] cannot open %s\n",
                         opt.statsJson.c_str());
        }
    }
    return out;
}

std::vector<Recorded>
recordSuite(std::uint32_t cores,
            const std::vector<sim::RecorderConfig> &policies,
            const BenchOptions &opt)
{
    std::vector<RecordJob> jobs;
    for (const App &app : apps())
        jobs.push_back({app, cores, policies, opt.coherence});
    return recordAll(jobs, opt);
}

std::vector<rnr::CoreLog>
roundTripThroughDisk(const std::vector<rnr::CoreLog> &logs)
{
    static std::atomic<std::uint64_t> counter{0};
    const char *tmpdir = std::getenv("TMPDIR");
    const std::string path =
        std::string(tmpdir && *tmpdir ? tmpdir : "/tmp") + "/rrbench_" +
        std::to_string(static_cast<unsigned long>(::getpid())) + "_" +
        std::to_string(counter.fetch_add(1)) + ".rrlog";

    rnr::RecordingMeta meta;
    meta.kernel = "bench-roundtrip";
    meta.cores = static_cast<std::uint32_t>(logs.size());
    for (const auto &log : logs)
        for (const auto &iv : log.intervals)
            if (!iv.predecessors.empty())
                meta.deps = true;

    {
        rnr::LogWriter writer(path, meta);
        for (sim::CoreId c = 0; c < logs.size(); ++c)
            for (const auto &iv : logs[c].intervals)
                writer.append(c, iv);
        rnr::RecordingSummary summary;
        summary.cores.resize(logs.size());
        for (std::size_t c = 0; c < logs.size(); ++c)
            summary.cores[c].intervals = logs[c].intervals.size();
        writer.finish(summary);
    }

    rnr::LogReader reader(path);
    std::vector<rnr::CoreLog> out = reader.readAll();
    std::remove(path.c_str());
    return out;
}

double
bitsPerKinst(const Recorded &r, int policy)
{
    const rnr::LogStats stats = r.logStats(policy);
    return 1000.0 * static_cast<double>(stats.totalBits) /
           static_cast<double>(r.result.totalInstructions);
}

double
logRateMBps(const Recorded &r, int policy)
{
    const rnr::LogStats stats = r.logStats(policy);
    const double bits_per_cycle = static_cast<double>(stats.totalBits) /
                                  static_cast<double>(r.result.cycles);
    return bits_per_cycle * 2e9 / 8.0 / 1e6;
}

void
printTitle(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

void
printColumns(const std::vector<std::string> &cols)
{
    for (std::size_t i = 0; i < cols.size(); ++i)
        std::printf(i == 0 ? "%-12s" : "%12s", cols[i].c_str());
    std::printf("\n");
}

namespace
{
bool rowStart = true;
}

void
printCell(const std::string &text)
{
    std::printf(rowStart ? "%-12s" : "%12s", text.c_str());
    rowStart = false;
}

void
printCell(double value, int precision)
{
    std::printf("%12.*f", precision, value);
    rowStart = false;
}

void
endRow()
{
    std::printf("\n");
    rowStart = true;
}

} // namespace rrbench
