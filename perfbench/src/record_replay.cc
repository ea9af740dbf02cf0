/**
 * @file
 * The closed-loop workloads, `record` and `replay`. Untraced ops are
 * exactly what the service runs: one svc::runJob per op. Traced ops
 * make the same sequence of public calls job_runner makes, with a span
 * around each, so per-layer time is measured from outside the layers.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "machine/machine.hh"
#include "rnr/logstore.hh"
#include "rnr/parallel_replayer.hh"
#include "rnr/patcher.hh"
#include "svc/job_runner.hh"
#include "svc/protocol.hh"
#include "workloads/kernels.hh"

namespace rrbench
{

namespace
{

using namespace rr;

constexpr std::uint64_t kRecordScale = 2;
constexpr std::uint64_t kReplayScale = 48;
constexpr std::uint32_t kReplayJobs = 4;
constexpr std::uint64_t kMinOps = 100; ///< ≥10 samples beyond p90
constexpr int kWarmupOps = 2;
/**
 * Set-up repetitions. A `record` set-up is two ops long (~0.3 s), so it
 * lands in one host phase; eight of them spread through the run sample
 * several. A `replay` set-up records for ~4.5 s and spans phases itself.
 */
constexpr std::uint32_t kRecordSetupReps = 8;
constexpr std::uint32_t kReplaySetupReps = 4;
/** Probe lengths of about a tenth of each workload's op. */
constexpr std::uint32_t kRecordProbeIters = 5'000'000;
constexpr std::uint32_t kReplayProbeIters = 2'500'000;

svc::JobParams
replayParams(const std::string &file)
{
    svc::JobParams p;
    p.kind = svc::JobKind::Replay;
    p.file = file;
    p.jobs = kReplayJobs;
    p.ingest = rnr::IngestMode::Auto;
    return p;
}

/** The .rrlog metadata job_runner writes for @p p. */
rnr::RecordingMeta
metaFor(const svc::JobParams &p)
{
    const workloads::WorkloadParams wp;
    const sim::MachineConfig cfg;
    rnr::RecordingMeta meta;
    meta.kernel = p.kernel;
    meta.cores = p.cores;
    meta.scale = p.scale;
    meta.intensity = wp.intensity;
    meta.workloadSeed = wp.seed;
    meta.machineSeed = cfg.seed;
    meta.mode = p.mode;
    meta.intervalCap = p.intervalCap;
    meta.deps = p.deps;
    meta.coherence = p.coherence;
    return meta;
}

rnr::RecordingSummary
summaryOf(const machine::RecordingResult &rec)
{
    rnr::RecordingSummary s;
    s.totalInstructions = rec.totalInstructions;
    s.cycles = rec.cycles;
    s.memoryFingerprint = rec.memoryFingerprint;
    for (std::size_t c = 0; c < rec.cores.size(); ++c) {
        rnr::CoreReplaySummary core;
        core.intervals = rec.logs[0][c].intervals.size();
        core.retiredInstructions = rec.cores[c].retiredInstructions;
        core.retiredLoads = rec.cores[c].retiredLoads;
        core.loadValueHash = rec.cores[c].loadValueHash;
        s.cores.push_back(core);
    }
    return s;
}

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Per-op values of the per-layer metrics; the report takes medians. */
using Series = std::map<std::string, std::vector<double>>;

/** What the closed loop collected. */
struct LoopResult
{
    std::vector<double> untracedMs; ///< op wall of svc::runJob ops
    std::vector<double> tracedMs;   ///< op wall of traced ops
    std::vector<double> cost;       ///< untraced op wall / probe wall
    std::vector<double> probeMs;
    std::uint64_t ok = 0;
};

/**
 * Probe, then run one op, until the run's time is up and at least
 * kMinOps ops were measured (or exactly o.maxOps ops). A traced run
 * alternates traced and untraced ops so trace_overhead compares ops
 * taken in the same host phases. @p set_up runs @p set_ups times,
 * evenly spaced through the window, so the set-up times sample the host
 * phases of the whole run; its time does not count towards the window.
 */
LoopResult
closedLoop(const Options &o, Probe &probe, Report &r,
           const std::function<bool(std::uint64_t, bool)> &op,
           const std::function<void()> &set_up, std::uint32_t set_ups)
{
    LoopResult lr;
    auto start = Clock::now();
    std::uint32_t set_ups_done = 0;
    for (std::uint64_t i = 0;; ++i) {
        const double elapsed_s = msBetween(start, Clock::now()) / 1000.0;
        const double progress =
            o.maxOps ? static_cast<double>(i) / static_cast<double>(o.maxOps)
                     : elapsed_s / o.seconds;
        if (set_ups_done < set_ups &&
            progress >= (set_ups_done + 0.5) / set_ups) {
            const auto t0 = Clock::now();
            set_up();
            ++set_ups_done;
            start += Clock::now() - t0;
        }
        if (o.maxOps ? i >= o.maxOps
                     : (elapsed_s >= o.seconds && i >= kMinOps) ||
                           elapsed_s >= 3.0 * o.seconds)
            break;
        const double probe_ms = probe.run();
        const bool traced = o.trace && i % 2 == 0;
        const auto t0 = Clock::now();
        const bool ok = op(i, traced);
        const double ms = msBetween(t0, Clock::now());
        ++r.attempted;
        if (ok)
            ++lr.ok;
        else
            ++r.failed;
        lr.probeMs.push_back(probe_ms);
        if (traced) {
            lr.tracedMs.push_back(ms);
        } else {
            lr.untracedMs.push_back(ms);
            lr.cost.push_back(ms / probe_ms);
        }
    }
    for (; set_ups_done < set_ups; ++set_ups_done)
        set_up();
    return lr;
}

/**
 * Peak RSS of a fresh process that performs one op on @p file: this
 * binary re-run with --one-op, which prints its own VmHWM, five times;
 * the median is reported. This process's VmHWM would instead depend on
 * what set-up and earlier ops left in its heap, which moves by
 * megabytes from run to run. (The child's ru_maxrss would too: it
 * counts the parent's RSS at the fork.)
 */
double
oneOpPeakRssMib(const Options &o, const std::string &file, Report &r)
{
    std::vector<double> peaks;
    for (int i = 0; i < 5; ++i) {
        int fds[2];
        if (::pipe2(fds, O_CLOEXEC) != 0) {
            r.error("pipe for the peak-RSS process failed");
            return 0.0;
        }
        const pid_t parent = ::getpid();
        const pid_t pid = ::fork();
        if (pid == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (::getppid() != parent)
                ::_exit(127);
            ::dup2(fds[1], STDOUT_FILENO);
            ::execl("/proc/self/exe", "rrbench", "--workload",
                    o.workload.c_str(), "--one-op", file.c_str(),
                    static_cast<char *>(nullptr));
            ::_exit(127);
        }
        ::close(fds[1]);
        std::string out;
        char buf[256];
        for (ssize_t n; (n = ::read(fds[0], buf, sizeof(buf))) != 0;) {
            if (n > 0)
                out.append(buf, static_cast<std::size_t>(n));
            else if (errno != EINTR)
                break;
        }
        ::close(fds[0]);
        int status = 0;
        const bool exited = pid > 0 && ::waitpid(pid, &status, 0) == pid &&
                            WIFEXITED(status) && WEXITSTATUS(status) == 0;
        const double mib = std::strtod(out.c_str(), nullptr);
        if (!exited || mib <= 0.0) {
            r.error("the one-op process measuring peak RSS failed");
            return 0.0;
        }
        peaks.push_back(mib);
    }
    return percentile(peaks, 0.5);
}

/** Metrics shared by both closed-loop workloads. */
void
reportLoop(const LoopResult &lr, double instructions, double log_bytes,
           double setup_s, double rss_mib, Report &r)
{
    auto &m = r.metrics;
    const double p50 = percentile(lr.untracedMs, 0.5);
    double sum_ms = 0.0;
    for (const auto *ops : {&lr.untracedMs, &lr.tracedMs})
        for (double ms : *ops)
            sum_ms += ms;
    m["setup_s"] = setup_s;
    m["op_cost_p50"] = percentile(lr.cost, 0.5);
    m["op_cost_p90"] = percentile(lr.cost, 0.9);
    m["peak_rss_mib"] = rss_mib;
    m["log_bytes_per_kinst"] = log_bytes / (instructions / 1000.0);
    m["bench.op_ms_p50"] = p50;
    m["bench.op_ms_p90"] = percentile(lr.untracedMs, 0.9);
    m["bench.kips"] = instructions / (p50 / 1000.0) / 1000.0;
    m["bench.goodput_ops_per_s"] =
        static_cast<double>(lr.ok) / (sum_ms / 1000.0);
    m["bench.probe_ms_p50"] = percentile(lr.probeMs, 0.5);
    if (!lr.tracedMs.empty())
        m["bench.trace_overhead"] =
            percentile(lr.tracedMs, 0.5) / p50 - 1.0;
}

void
putMedians(const Series &s, Report &r)
{
    for (const auto &[name, values] : s)
        r.metrics[name] = percentile(values, 0.5);
}

/** Simulator and recorder counters of one traced record op. */
std::map<std::string, double>
recordCounts(machine::Machine &m, const machine::RecordingResult &rec)
{
    std::map<std::string, double> c;
    c["machine.sim_cycles"] = static_cast<double>(rec.cycles);
    c["machine.sim_instructions"] =
        static_cast<double>(rec.totalInstructions);
    const sim::StatSet &mem = m.memorySystem().stats();
    for (const char *k :
         {"bus_gets", "bus_getm", "c2c_transfers", "l1_misses"})
        c[std::string("mem.") + k] =
            static_cast<double>(mem.counterValue(k));
    for (const char *k : {"intervals", "reordered_loads",
                          "dependency_edges", "terminations_conflict"}) {
        std::uint64_t sum = 0;
        for (sim::CoreId core = 0; core < m.config().numCores; ++core)
            sum += m.hub(core).recorder(0).stats().counterValue(k);
        c[std::string("rnr.") + k] = static_cast<double>(sum);
    }
    return c;
}

} // namespace

int
runOneOp(const Options &o)
{
    const bool record = o.workload == "record";
    const svc::JobParams params = record
                                      ? recordParams(kRecordScale, o.oneOpFile)
                                      : replayParams(o.oneOpFile);
    svc::CancelToken token;
    const svc::JobOutcome out = svc::runJob(params, token);
    if (record)
        std::remove(o.oneOpFile.c_str());
    if (!out.ok) {
        std::fprintf(stderr, "rrbench: one-op %s failed: %s\n",
                     o.workload.c_str(), out.message.c_str());
        return 1;
    }
    std::printf("%.6f\n", peakRssMib(::getpid()));
    return 0;
}

// --- record ---------------------------------------------------------------

Report
runRecord(const Options &o)
{
    Report r;
    const std::string file = o.tmpDir + "/record.rrlog";
    registerTempFile(file);
    registerTempFile(file + ".tmp");
    const svc::JobParams params = recordParams(kRecordScale, file);

    // Reference facts, from the first warm-up op.
    std::string ref_json;
    std::uint64_t ref_fp = 0, ref_inst = 0, ref_bytes = 0;

    const auto untraced = [&](const char *what) {
        svc::CancelToken token;
        const svc::JobOutcome out = svc::runJob(params, token);
        std::remove(file.c_str());
        if (!out.ok) {
            r.error(std::string(what) + ": record failed: " + out.message);
            return false;
        }
        if (ref_json.empty()) {
            std::string err;
            const auto doc = svc::parseJson(out.resultJson, err);
            if (!doc) {
                r.error("record result is not JSON: " + err);
                return false;
            }
            ref_json = out.resultJson;
            ref_fp = std::stoull(
                doc->get("memoryFingerprint").asString(), nullptr, 16);
            ref_inst = doc->get("instructions").asInt();
            ref_bytes = doc->get("bytesWritten").asInt();
        }
        if (out.resultJson != ref_json) {
            r.error(std::string(what) + ": record result differs from "
                    "the warm-up op: " + out.resultJson);
            return false;
        }
        return true;
    };

    Tracer tracer;
    Series series;
    std::map<std::string, double> ref_counts;
    const auto traced = [&](Tracer &tr, std::uint64_t op_id) {
        const int op = tr.begin("op.record", -1, op_id);
        int s = tr.begin("logstore.create", op, op_id);
        auto writer =
            std::make_unique<rnr::LogWriter>(file, metaFor(params));
        tr.end(s);

        s = tr.begin("workloads.build", op, op_id);
        workloads::WorkloadParams wp;
        wp.numThreads = params.cores;
        wp.scale = params.scale;
        const workloads::Workload w =
            workloads::buildKernel(params.kernel, wp);
        tr.end(s);

        s = tr.begin("machine.init", op, op_id);
        sim::MachineConfig cfg;
        cfg.numCores = params.cores;
        cfg.coherence = params.coherence;
        std::vector<sim::RecorderConfig> policies(1);
        policies[0].mode = params.mode;
        policies[0].maxIntervalInstructions = params.intervalCap;
        policies[0].recordDependencies = params.deps;
        machine::Machine m(cfg, w.program, policies);
        double sink_ms = 0.0;
        std::uint64_t sink_calls = 0;
        m.setIntervalSink(0, [&](sim::CoreId core,
                                 const rnr::IntervalRecord &iv) {
            const auto t0 = Clock::now();
            writer->append(core, iv);
            sink_ms += msBetween(t0, Clock::now());
            ++sink_calls;
        });
        const mem::BackingStore initial = m.initialMemory();
        tr.end(s);

        s = tr.begin("machine.run", op, op_id);
        const machine::RecordingResult rec = m.run();
        tr.end(s);
        const double run_ms = tr.span(s).ms();
        // The sink calls run inside Machine::run; their sum is kept on
        // the run span rather than as one span per interval.
        tr.arg(s, "sink_ms", sink_ms);
        tr.arg(s, "sink_calls", static_cast<double>(sink_calls));

        s = tr.begin("logstore.finish", op, op_id);
        writer->finish(summaryOf(rec));
        tr.end(s);
        const double finish_ms = tr.span(s).ms();
        rnr::LogStats stats;
        for (const auto &log : rec.logs[0])
            stats.accumulate(log);
        tr.end(op);
        std::remove(file.c_str());

        bool ok = rec.memoryFingerprint == ref_fp &&
                  rec.totalInstructions == ref_inst &&
                  writer->bytesWritten() == ref_bytes;
        if (!ok)
            r.error("traced record op " + std::to_string(op_id) +
                    ": fingerprint " + hex64(rec.memoryFingerprint) +
                    ", " + std::to_string(rec.totalInstructions) +
                    " instructions, " +
                    std::to_string(writer->bytesWritten()) +
                    " bytes differ from the warm-up op");
        const auto counts = recordCounts(m, rec);
        if (ref_counts.empty())
            ref_counts = counts;
        else if (counts != ref_counts) {
            r.error("traced record op " + std::to_string(op_id) +
                    ": simulator counters differ between identical ops");
            ok = false;
        }

        if (&tr == &tracer) {
            const double self_ms = run_ms - sink_ms;
            series["workloads.build_ms"].push_back(
                tr.childMs(op, "workloads.build"));
            series["machine.init_ms"].push_back(
                tr.childMs(op, "machine.init"));
            series["machine.run_ms"].push_back(self_ms);
            series["machine.ns_per_sim_inst"].push_back(
                self_ms * 1e6 /
                static_cast<double>(rec.totalInstructions));
            series["logstore.append_ms"].push_back(sink_ms);
            series["logstore.finish_ms"].push_back(finish_ms);
            series["logstore.write_mib_per_s"].push_back(
                static_cast<double>(writer->bytesWritten()) /
                (1024.0 * 1024.0) / ((sink_ms + finish_ms) / 1000.0));
            series["bench.span_coverage"].push_back(tr.childMs(op) /
                                                    tr.span(op).ms());
        }
        return ok;
    };

    // Set-up: the run's first ops (file system, allocator and caches
    // warm up); the first op's result is the reference. Later
    // repetitions run inside the window.
    SetupTimer setup;
    const auto setUp = [&] {
        const auto t0 = Clock::now();
        for (int i = 0; i < kWarmupOps; ++i)
            untraced("warm-up");
        if (o.trace) {
            Tracer warmup;
            traced(warmup, 0);
        }
        setup.seconds.push_back(msBetween(t0, Clock::now()) / 1000.0);
    };
    setUp();
    if (!r.errors.empty())
        return r;
    const std::string rss_file = o.tmpDir + "/rss.rrlog";
    registerTempFile(rss_file);
    registerTempFile(rss_file + ".tmp");
    const double rss = oneOpPeakRssMib(o, rss_file, r);

    Probe probe(o.seed, kRecordProbeIters);
    probe.run();
    const LoopResult lr = closedLoop(
        o, probe, r,
        [&](std::uint64_t i, bool t) {
            return t ? traced(tracer, i) : untraced("op");
        },
        setUp, setupReps(o, kRecordSetupReps) - 1);
    reportLoop(lr, static_cast<double>(ref_inst),
               static_cast<double>(ref_bytes), setup.median(), rss, r);
    if (o.trace) {
        putMedians(series, r);
        for (const auto &[name, v] : ref_counts)
            r.metrics[name] = v;
        tracer.writeChrome(o.traceFile);
    }
    return r;
}

// --- replay ---------------------------------------------------------------

Report
runReplay(const Options &o)
{
    Report r;
    const std::string file = o.tmpDir + "/replay.rrlog";
    registerTempFile(file);
    registerTempFile(file + ".tmp");
    const svc::JobParams params = replayParams(file);

    std::string ref_json;
    std::uint64_t ref_inst = 0;
    const auto untraced = [&](const char *what) {
        svc::CancelToken token;
        const svc::JobOutcome out = svc::runJob(params, token);
        if (!out.ok) {
            r.error(std::string(what) + ": replay failed: " + out.message);
            return false;
        }
        if (ref_json.empty()) {
            std::string err;
            const auto doc = svc::parseJson(out.resultJson, err);
            if (!doc || doc->get("determinism").asString() != "ok") {
                r.error("warm-up replay did not verify: " +
                        out.resultJson);
                return false;
            }
            ref_json = out.resultJson;
            ref_inst = doc->get("instructions").asInt();
        }
        if (out.resultJson != ref_json) {
            r.error(std::string(what) + ": replay result differs from "
                    "the warm-up op: " + out.resultJson);
            return false;
        }
        return true;
    };

    Tracer tracer;
    Series series;
    const auto traced = [&](Tracer &tr, std::uint64_t op_id) {
        const int op = tr.begin("op.replay", -1, op_id);
        int s = tr.begin("logstore.open", op, op_id);
        rnr::LogReader reader(file, params.ingest);
        const rnr::RecordingMeta meta = reader.meta();
        const rnr::RecordingSummary summary = reader.summary();
        tr.end(s);

        s = tr.begin("logstore.decode", op, op_id);
        std::vector<rnr::CoreLog> logs = reader.readAllParallel(params.jobs);
        tr.end(s);
        const double decode_ms = tr.span(s).ms();

        s = tr.begin("workloads.build", op, op_id);
        workloads::WorkloadParams wp;
        wp.numThreads = meta.cores;
        wp.scale = meta.scale;
        wp.intensity = meta.intensity;
        wp.seed = meta.workloadSeed;
        const workloads::Workload w =
            workloads::buildKernel(meta.kernel, wp);
        tr.end(s);

        // File replay builds a Machine only for its initial memory.
        s = tr.begin("machine.init", op, op_id);
        sim::MachineConfig cfg;
        cfg.numCores = meta.cores;
        cfg.seed = meta.machineSeed;
        cfg.coherence = meta.coherence;
        std::vector<sim::RecorderConfig> policies(1);
        policies[0].mode = meta.mode;
        machine::Machine m(cfg, w.program, policies);
        tr.end(s);

        s = tr.begin("patcher.patch", op, op_id);
        std::vector<rnr::CoreLog> patched;
        for (auto &log : logs)
            patched.push_back(rnr::patch(log));
        tr.end(s);

        s = tr.begin("replay.engine", op, op_id);
        std::vector<std::uint64_t> hashes(meta.cores, 0);
        std::vector<std::uint64_t> load_counts(meta.cores, 0);
        rnr::ParallelReplayOptions popts;
        popts.workers = params.jobs;
        rnr::ParallelReplayer rep(w.program, std::move(patched),
                                  m.initialMemory().clone(), popts);
        rep.setLoadHook([&](sim::CoreId c, std::uint64_t v) {
            hashes[c] = machine::mixLoadValue(hashes[c], v);
            ++load_counts[c];
        });
        const rnr::ReplayResult res = rep.run();
        tr.end(s);
        const double engine_ms = tr.span(s).ms();

        s = tr.begin("replay.verify", op, op_id);
        bool ok = res.memory.fingerprint() == summary.memoryFingerprint &&
                  res.instructions == summary.totalInstructions;
        for (sim::CoreId c = 0; c < meta.cores; ++c) {
            const auto &cs = summary.cores[c];
            if (hashes[c] != cs.loadValueHash ||
                load_counts[c] != cs.retiredLoads ||
                res.contexts[c].instructions != cs.retiredInstructions)
                ok = false;
        }
        tr.end(s);
        tr.end(op);
        if (!ok || res.instructions != ref_inst)
            r.error("traced replay op " + std::to_string(op_id) +
                    ": replayed state does not match the recording");

        if (&tr == &tracer) {
            const sim::StatSet &es = res.engineStats;
            const auto scalar = [&](const char *k) {
                const auto it = es.scalars().find(k);
                return it == es.scalars().end() ? 0.0 : it->second.mean();
            };
            series["logstore.open_ms"].push_back(
                tr.childMs(op, "logstore.open"));
            series["logstore.decode_ms"].push_back(decode_ms);
            series["logstore.decode_mib_per_s"].push_back(
                static_cast<double>(reader.fileBytes()) /
                (1024.0 * 1024.0) / (decode_ms / 1000.0));
            series["workloads.build_ms"].push_back(
                tr.childMs(op, "workloads.build"));
            series["machine.init_ms"].push_back(
                tr.childMs(op, "machine.init"));
            series["patcher.patch_ms"].push_back(
                tr.childMs(op, "patcher.patch"));
            series["replay.engine_ms"].push_back(engine_ms);
            series["replay.ns_per_interval"].push_back(
                engine_ms * 1e6 / static_cast<double>(res.intervals));
            series["replay.utilization"].push_back(scalar("utilization"));
            series["replay.measured_speedup"].push_back(
                scalar("measured_speedup"));
            series["replay.words_committed"].push_back(
                static_cast<double>(es.counterValue("words_committed")));
            series["replay.verify_ms"].push_back(
                tr.childMs(op, "replay.verify"));
            series["bench.span_coverage"].push_back(tr.childMs(op) /
                                                    tr.span(op).ms());
        }
        return ok && res.instructions == ref_inst;
    };

    // Set-up: record the replayed file, then warm up on it. Every
    // repetition's replays must match the first one's; later
    // repetitions run inside the window.
    SetupTimer setup;
    const auto setUp = [&] {
        const auto t0 = Clock::now();
        std::remove(file.c_str());
        svc::CancelToken token;
        const svc::JobOutcome rec =
            svc::runJob(recordParams(kReplayScale, file), token);
        if (!rec.ok) {
            r.error("set-up recording failed: " + rec.message);
            return false;
        }
        for (int i = 0; i < kWarmupOps; ++i)
            untraced("warm-up");
        if (o.trace) {
            Tracer warmup;
            traced(warmup, 0);
        }
        setup.seconds.push_back(msBetween(t0, Clock::now()) / 1000.0);
        return true;
    };
    if (!setUp() || !r.errors.empty())
        return r;
    const double rss = oneOpPeakRssMib(o, file, r);

    Probe probe(o.seed, kReplayProbeIters);
    probe.run();
    const LoopResult lr = closedLoop(
        o, probe, r,
        [&](std::uint64_t i, bool t) {
            return t ? traced(tracer, i) : untraced("op");
        },
        [&] { setUp(); }, setupReps(o, kReplaySetupReps) - 1);
    reportLoop(lr, static_cast<double>(ref_inst),
               static_cast<double>(std::filesystem::file_size(file)),
               setup.median(), rss, r);
    if (o.trace) {
        putMedians(series, r);
        tracer.writeChrome(o.traceFile);
    }
    return r;
}

} // namespace rrbench
