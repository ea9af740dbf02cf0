/**
 * @file
 * The open-loop `serve` workload. Set-up starts an `rrsim serve`
 * daemon on a private socket, records the two input files and computes
 * every job's expected result in-process with svc::runJob. One
 * generator thread then sends seeded Poisson arrivals over four
 * connections and times each job from when it was due to its terminal
 * event, checking that the daemon's result is byte-identical to the
 * in-process one.
 */

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "svc/client.hh"
#include "svc/job_runner.hh"
#include "svc/protocol.hh"

namespace rrbench
{

namespace
{

using namespace rr;

/** Built next to rrbench by perfbench/CMakeLists.txt. */
constexpr const char *kRrsim = ".bench_build/rrsim";
/**
 * Arrival rate: each of the two executors is busy ~10% of the time, so
 * a job rarely waits for one.
 */
constexpr double kRatePerSec = 50.0;
constexpr double kLatencyLimitMs = 50.0;
constexpr int kConns = 4;
constexpr std::uint64_t kMinJobs = 100;
constexpr std::uint32_t kSetupReps = 4;
/** How long after the last arrival stragglers may still finish. */
constexpr double kDrainSeconds = 30.0;
/** The generator busy-polls this long before each arrival. */
constexpr double kSpinMs = 1.0;
/**
 * Probe length for the serve window: about 2 ms, timed every 50 ms on
 * its own thread (a few percent of one core). op_cost is each job's
 * latency ÷ the probe wall around its due time.
 */
constexpr std::uint32_t kProbeIters = 500'000;

enum Kind
{
    kStats,
    kVerify,
    kReplay,
    kKinds
};
constexpr const char *kOpNames[kKinds] = {"stats", "verify", "replay"};

/**
 * Scale of the deps recording behind `stats` and `verify`. At scale 2
 * those jobs took ~0.3 ms on the daemon and their latency was as much
 * thread wake-ups as work, which the probe does not track and which
 * doubles for a minute after the host has been busy on every core; at
 * 12 `verify` takes ~1.2 ms there and `stats` ~2 ms, and the work
 * dominates. Larger files slowed the replays beside them.
 */
constexpr std::uint64_t kDepsScale = 12;
/**
 * Scale of the no-deps recording the sequential replays run: ~8 ms, so
 * even the light jobs' slow tail stays below the replay mode.
 */
constexpr std::uint64_t kPlainScale = 6;

/** The two tenants the arrivals are split between, and their weights. */
constexpr std::array<const char *, 2> kTenants = {"light", "heavy"};
constexpr std::array<int, 2> kWeights = {1, 3};

// --- generator connections ----------------------------------------------
//
// The generator ppoll()s the raw fds of its four connections, which
// svc::Client does not expose; daemon control and warm-up use the client.

int
connectUnix(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        return -1;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
sendLine(int fd, const std::string &line)
{
    const std::string buf = line + "\n";
    std::size_t off = 0;
    while (off < buf.size()) {
        const ssize_t n = ::send(fd, buf.data() + off, buf.size() - off,
                                 MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/** One connection's socket and its unparsed input. */
struct Conn
{
    int fd = -1;
    std::string inbuf;

    /** Pull what is readable; false on EOF or error. */
    bool fill()
    {
        char buf[65536];
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR)
            return true;
        if (n <= 0)
            return false;
        inbuf.append(buf, static_cast<std::size_t>(n));
        return true;
    }

    /** Pop one complete line into @p line. */
    bool nextLine(std::string &line)
    {
        const std::size_t nl = inbuf.find('\n');
        if (nl == std::string::npos)
            return false;
        line = inbuf.substr(0, nl);
        inbuf.erase(0, nl + 1);
        return true;
    }

    void close()
    {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
        inbuf.clear();
    }
};

// --- daemon -------------------------------------------------------------

/** The `rrsim serve` child process. */
class Daemon
{
  public:
    Daemon() = default;
    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Start and wait until the socket accepts; empty string = ok. */
    std::string start(const std::string &rrsim, const std::string &sock)
    {
        sock_ = sock;
        const pid_t parent = ::getpid();
        const pid_t pid = ::fork();
        if (pid < 0)
            return std::string("fork: ") + std::strerror(errno);
        if (pid == 0) {
            // Die with the benchmark even if it is SIGKILLed.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (::getppid() != parent)
                ::_exit(127);
            const int devnull = ::open("/dev/null", O_WRONLY);
            if (devnull >= 0)
                ::dup2(devnull, STDOUT_FILENO);
            ::execl(rrsim.c_str(), "rrsim", "serve", "--socket",
                    sock.c_str(), static_cast<char *>(nullptr));
            ::_exit(127);
        }
        pid_ = pid;
        registerDaemon(pid);
        for (int i = 0; i < 1000; ++i) {
            int status = 0;
            if (::waitpid(pid, &status, WNOHANG) == pid) {
                pid_ = -1;
                forgetDaemon();
                return "daemon " + rrsim + " exited during start-up";
            }
            std::string err;
            if (svc::Client::connectUnix(sock, err))
                return "";
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        return "daemon did not listen on " + sock;
    }

    /** Draining shutdown over the wire; SIGKILL if it does not exit. */
    void stop()
    {
        if (pid_ <= 0)
            return;
        std::string err;
        auto client = svc::Client::connectUnix(sock_, err);
        if (!client ||
            !client->sendLine(R"({"op":"shutdown","drain":true})", err))
            ::kill(pid_, SIGTERM);
        bool exited = false;
        for (int i = 0; i < 1000 && !exited; ++i) {
            exited = ::waitpid(pid_, nullptr, WNOHANG) == pid_;
            if (!exited)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
        }
        if (!exited) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
        forgetDaemon();
        pid_ = -1;
        ::unlink(sock_.c_str());
    }

    pid_t pid() const { return pid_; }

    /** utime + stime of the daemon in ms. */
    double cpuMs() const
    {
        std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
        std::string all((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
        const std::size_t paren = all.rfind(')');
        if (paren == std::string::npos)
            return 0.0;
        std::istringstream fields(all.substr(paren + 2));
        std::string f;
        double ticks = 0.0;
        // Fields after the command name start at field 3 (state);
        // utime and stime are fields 14 and 15.
        for (int i = 3; i <= 15 && fields >> f; ++i)
            if (i >= 14)
                ticks += std::stod(f);
        return ticks * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
    }

  private:
    pid_t pid_ = -1;
    std::string sock_;
};

/**
 * Times the probe every kSamplePeriodMs on its own thread through the
 * window, so each job's latency can be divided by the host speed of
 * its moment without delaying the generator.
 */
class ProbeSampler
{
  public:
    ProbeSampler(std::uint64_t seed, std::uint32_t iters)
        : probe_(seed, iters), thread_([this] { loop(); })
    {
    }
    ~ProbeSampler() { stop(); }
    ProbeSampler(const ProbeSampler &) = delete;
    ProbeSampler &operator=(const ProbeSampler &) = delete;

    void stop()
    {
        stop_.store(true);
        if (thread_.joinable())
            thread_.join();
    }

    /**
     * Median probe wall of the samples within kNearMs of @p t (of all
     * samples if none is); call after stop().
     */
    double near(Clock::time_point t) const
    {
        std::vector<double> v;
        for (const auto &[at, ms] : samples_)
            if (std::abs(msBetween(at, t)) <= kNearMs)
                v.push_back(ms);
        return v.empty() ? medianMs() : percentile(v, 0.5);
    }

    double medianMs() const
    {
        std::vector<double> v;
        for (const auto &sample : samples_)
            v.push_back(sample.second);
        return percentile(v, 0.5);
    }

  private:
    static constexpr int kSamplePeriodMs = 50;
    static constexpr double kNearMs = 500.0;

    void loop()
    {
        do {
            const auto at = Clock::now();
            samples_.emplace_back(at, probe_.run());
            std::this_thread::sleep_until(
                at + std::chrono::milliseconds(kSamplePeriodMs));
        } while (!stop_.load());
    }

    Probe probe_;
    std::atomic<bool> stop_{false};
    std::vector<std::pair<Clock::time_point, double>> samples_;
    std::thread thread_; ///< last: it uses the members above
};

// --- jobs ---------------------------------------------------------------

/** One arrival and what the generator saw of it. */
struct Job
{
    Kind kind = kStats;
    int tenant = 0;
    Clock::time_point due, sent, terminal;
    bool done = false, ok = false;
    double serverWallMs = 0.0;
};

std::string
requestLine(Kind kind, const std::string &file, int tenant,
            std::uint64_t tag)
{
    std::string line = std::string("{\"op\":\"") + kOpNames[kind] +
                       "\",\"file\":" + svc::jsonQuote(file);
    if (kind == kReplay)
        line += ",\"jobs\":1";
    line += ",\"tenant\":\"" + std::string(kTenants[tenant]) +
            "\",\"weight\":" + std::to_string(kWeights[tenant]) +
            ",\"tag\":\"" + std::to_string(tag) + "\"}";
    return line;
}

/**
 * The `result` object of a completed event line, verbatim. The event
 * is `{"event":"completed",...,"result":{...},"tag":"T"}`.
 */
bool
resultOf(const std::string &line, const std::string &tag,
         std::string &result)
{
    const std::string key = ",\"result\":";
    const std::string tail = ",\"tag\":" + svc::jsonQuote(tag) + "}";
    const std::size_t at = line.find(key);
    if (at == std::string::npos || line.size() < tail.size() ||
        line.compare(line.size() - tail.size(), tail.size(), tail) != 0)
        return false;
    const std::size_t from = at + key.size();
    if (line.size() - tail.size() < from)
        return false;
    result = line.substr(from, line.size() - tail.size() - from);
    return true;
}

/** What set-up hands the generator. */
struct Setup
{
    std::string depsFile, plainFile, sock;
    std::array<std::string, kKinds> expected; ///< result JSON per kind
    double depsBytesPerKinst = 0.0;
    double replayInstructions = 0.0;
};

svc::JobParams
jobParams(Kind kind, const Setup &s)
{
    svc::JobParams p;
    p.kind = kind == kStats    ? svc::JobKind::Stats
             : kind == kVerify ? svc::JobKind::Verify
                               : svc::JobKind::Replay;
    p.file = kind == kReplay ? s.plainFile : s.depsFile;
    p.jobs = 1;
    return p;
}

/** Record the inputs and compute the expected results in-process. */
std::string
prepareInputs(Setup &s)
{
    for (const bool deps : {true, false}) {
        const std::string &file = deps ? s.depsFile : s.plainFile;
        svc::CancelToken token;
        const svc::JobOutcome out =
            svc::runJob(recordParams(deps ? kDepsScale : kPlainScale, file,
                                     deps),
                        token);
        if (!out.ok)
            return "set-up recording failed: " + out.message;
        if (deps) {
            std::string err;
            const auto doc = svc::parseJson(out.resultJson, err);
            const double inst =
                doc ? static_cast<double>(doc->get("instructions").asInt())
                    : 0.0;
            s.depsBytesPerKinst =
                static_cast<double>(std::filesystem::file_size(file)) /
                (inst / 1000.0);
        }
    }
    for (int k = 0; k < kKinds; ++k) {
        svc::CancelToken token;
        const svc::JobOutcome out =
            svc::runJob(jobParams(static_cast<Kind>(k), s), token);
        if (!out.ok)
            return std::string("reference ") + kOpNames[k] +
                   " failed: " + out.message;
        s.expected[k] = out.resultJson;
        if (k == kReplay) {
            std::string err;
            const auto doc = svc::parseJson(out.resultJson, err);
            s.replayInstructions =
                doc ? static_cast<double>(doc->get("instructions").asInt())
                    : 0.0;
        }
    }
    return "";
}

/** Submit one job of each kind on a connection of its own; check each. */
std::string
warmUp(const Setup &s)
{
    std::string err;
    auto client = svc::Client::connectUnix(s.sock, err);
    if (!client)
        return "warm-up connect: " + err;
    for (int k = 0; k < kKinds; ++k) {
        const std::string tag = "w" + std::to_string(k);
        const std::string what = std::string("warm-up ") + kOpNames[k];
        if (!client->sendLine(std::string("{\"op\":\"") + kOpNames[k] +
                                  "\",\"file\":" +
                                  svc::jsonQuote(
                                      jobParams(static_cast<Kind>(k), s).file) +
                                  ",\"tag\":\"" + tag + "\"}",
                              err))
            return what + " send: " + err;
        for (;;) {
            const auto line = client->readLine(err, 30.0);
            if (!line)
                return what + ": no terminal event " + err;
            const auto ev = svc::parseJson(*line, err);
            if (!ev || !svc::eventIsTerminal(*ev))
                continue;
            std::string result;
            if (ev->get("event").asString() != "completed" ||
                !resultOf(*line, tag, result) || result != s.expected[k])
                return what + ": " + *line;
            break;
        }
    }
    return "";
}

/**
 * Seeded arrivals: @p n times, uniform over [0, n / rate) and sorted —
 * a Poisson process of the given rate conditioned on its count, so
 * every seed offers exactly the same load. Kinds and tenants are
 * shuffled decks with exact 45/35/20 and 50/50 splits: with a fifth of
 * the jobs heavy, the all-jobs p90 lands at the replays' median, in
 * the core of their mode rather than at its edge.
 */
std::vector<Job>
makeJobs(std::uint64_t n, std::uint64_t seed, Clock::time_point start)
{
    std::mt19937_64 rng(seed);
    const double span_s = static_cast<double>(n) / kRatePerSec;
    std::uniform_real_distribution<double> at(0.0, span_s);
    std::vector<double> times(n);
    for (double &t : times)
        t = at(rng);
    std::sort(times.begin(), times.end());

    std::vector<Kind> kinds;
    const std::uint64_t stats = (n * 9 + 10) / 20;
    const std::uint64_t verify = (n * 7 + 10) / 20;
    for (std::uint64_t i = 0; i < n; ++i)
        kinds.push_back(i < stats            ? kStats
                        : i < stats + verify ? kVerify
                                             : kReplay);
    std::shuffle(kinds.begin(), kinds.end(), rng);
    std::vector<int> tenants(n);
    for (std::uint64_t i = 0; i < n; ++i)
        tenants[i] = static_cast<int>(i % 2);
    std::shuffle(tenants.begin(), tenants.end(), rng);

    std::vector<Job> jobs(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        jobs[i].kind = kinds[i];
        jobs[i].tenant = tenants[i];
        jobs[i].due = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(times[i]));
    }
    return jobs;
}

/** Fold one event line into its job; @return true when terminal. */
bool
onEvent(const std::string &line, std::vector<Job> &jobs, const Setup &s,
        Report &r)
{
    const auto now = Clock::now();
    std::string err;
    const auto ev = svc::parseJson(line, err);
    const std::string tag = ev ? ev->get("tag").asString() : "";
    std::uint64_t idx = jobs.size();
    if (!tag.empty() &&
        tag.find_first_not_of("0123456789") == std::string::npos)
        idx = std::stoull(tag);
    if (idx >= jobs.size() || jobs[idx].done) {
        r.error("unexpected event: " + line);
        return false;
    }
    Job &j = jobs[idx];
    const std::string kind = ev->get("event").asString();
    if (kind == "accepted" || kind == "running" || kind == "progress")
        return false;
    j.terminal = now;
    j.done = true;
    if (kind == "completed") {
        j.serverWallMs = ev->get("wallSeconds").asDouble() * 1000.0;
        std::string result;
        j.ok = resultOf(line, tag, result) && result == s.expected[j.kind];
        if (!j.ok)
            r.error(std::string(kOpNames[j.kind]) + " job " + tag +
                    ": result differs from the in-process run: " + line);
    } else {
        r.error(std::string(kOpNames[j.kind]) + " job " + tag + ": " +
                line);
    }
    return true;
}

} // namespace

Report
runServe(const Options &o)
{
    Report r;
    Setup s;
    s.depsFile = o.tmpDir + "/deps.rrlog";
    s.plainFile = o.tmpDir + "/plain.rrlog";
    s.sock = o.tmpDir + "/serve.sock";
    for (const std::string &f : {s.depsFile, s.plainFile}) {
        registerTempFile(f);
        registerTempFile(f + ".tmp");
    }
    registerTempFile(s.sock);

    Daemon daemon;
    std::array<Conn, kConns> conns;
    const auto closeAll = [&] {
        for (Conn &c : conns)
            c.close();
    };

    // Set-up: daemon start, input recordings, in-process reference
    // results, connections and one warm-up job of each kind. Each
    // repetition starts from a stopped daemon; the window uses the last
    // one before it.
    SetupTimer setup;
    // Half the repetitions run before the window and half after it, so
    // their median spans the host phases of the whole run.
    const std::uint32_t reps = setupReps(o, kSetupReps);
    const std::uint32_t reps_before = (reps + 1) / 2;
    const auto setUp = [&] {
        closeAll();
        daemon.stop();
        std::remove(s.depsFile.c_str());
        std::remove(s.plainFile.c_str());
        const auto t0 = Clock::now();
        std::string err = daemon.start(kRrsim, s.sock);
        if (err.empty())
            err = prepareInputs(s);
        for (Conn &c : conns) {
            if (!err.empty())
                break;
            c.fd = connectUnix(s.sock);
            if (c.fd < 0)
                err = "cannot connect to " + s.sock;
        }
        if (err.empty())
            err = warmUp(s);
        if (!err.empty()) {
            r.error(err);
            return false;
        }
        setup.seconds.push_back(msBetween(t0, Clock::now()) / 1000.0);
        return true;
    };
    for (std::uint32_t rep = 0; rep < reps_before; ++rep)
        if (!setUp())
            return r;
    resetPeakRss(daemon.pid());

    ProbeSampler sampler(o.seed, kProbeIters);
    const std::uint64_t n =
        o.maxOps ? o.maxOps
                 : std::max<std::uint64_t>(
                       kMinJobs, static_cast<std::uint64_t>(std::llround(
                                     o.seconds * kRatePerSec)));
    const double cpu0 = daemon.cpuMs();
    const auto start = Clock::now() + std::chrono::milliseconds(20);
    std::vector<Job> jobs = makeJobs(n, o.seed, start);
    const auto give_up =
        jobs.back().due + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(kDrainSeconds));

    std::uint64_t next = 0, finished = 0;
    std::array<pollfd, kConns> fds;
    std::string line;
    while (finished < n && Clock::now() < give_up) {
        auto now = Clock::now();
        for (; next < n && jobs[next].due <= now; ++next) {
            Job &j = jobs[next];
            j.sent = Clock::now();
            Conn &c = conns[next % kConns];
            if (c.fd < 0 ||
                !sendLine(c.fd, requestLine(j.kind,
                                            jobParams(j.kind, s).file,
                                            j.tenant, next))) {
                j.done = true;
                j.terminal = j.sent;
                ++finished;
                r.error("send failed for job " + std::to_string(next));
            }
        }
        now = Clock::now();
        const auto until = next < n ? jobs[next].due : give_up;
        const double wait_ms = std::max(0.0, msBetween(now, until));
        // Sleep until kSpinMs before the next arrival, then poll without
        // sleeping: waking from a sleep can be hundreds of µs late, and
        // that lateness would land on the job's latency.
        const double capped =
            wait_ms > kSpinMs ? std::min(wait_ms - kSpinMs, 50.0) : 0.0;
        timespec ts;
        ts.tv_sec = 0;
        ts.tv_nsec = static_cast<long>(capped * 1e6);
        for (int c = 0; c < kConns; ++c)
            fds[c] = pollfd{conns[c].fd, POLLIN, 0};
        if (::ppoll(fds.data(), kConns, &ts, nullptr) <= 0)
            continue;
        for (int c = 0; c < kConns; ++c) {
            if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            if (!conns[c].fill()) {
                r.error("daemon closed connection " + std::to_string(c));
                conns[c].close();
                continue;
            }
            while (conns[c].nextLine(line))
                if (onEvent(line, jobs, s, r))
                    ++finished;
        }
    }
    const auto end = Clock::now();
    const double cpu_ms = daemon.cpuMs() - cpu0;
    const double daemon_rss = peakRssMib(daemon.pid());
    sampler.stop();
    for (std::uint32_t rep = reps_before; rep < reps; ++rep)
        if (!setUp())
            break;
    closeAll();
    daemon.stop();

    // Op metrics over every arrival; a lost job is a failure.
    std::vector<double> latency, cost, traced_lat, untraced_lat, overhead,
        exec, lag, coverage;
    std::array<std::vector<double>, kKinds> kind_cost;
    std::uint64_t good = 0, replays_ok = 0;
    Tracer tracer;
    for (std::uint64_t i = 0; i < n; ++i) {
        const Job &j = jobs[i];
        ++r.attempted;
        if (!j.done)
            r.error(std::string(kOpNames[j.kind]) + " job " +
                    std::to_string(i) + " never finished");
        if (!j.ok) {
            ++r.failed;
            continue;
        }
        const double ms = msBetween(j.due, j.terminal);
        latency.push_back(ms);
        cost.push_back(ms / sampler.near(j.due));
        kind_cost[j.kind].push_back(cost.back());
        if (ms <= kLatencyLimitMs)
            ++good;
        if (j.kind == kReplay)
            ++replays_ok;
        // The daemon's accepted, running and terminal events of a light
        // job mostly reach the client in one read, so the client cannot
        // time admission and queueing apart. It splits the latency into
        // generator lag, the executor's own wall (`wallSeconds` of the
        // completed event) and the rest: transport, parsing, queueing,
        // dispatch and thread wake-ups.
        const double lag_ms = msBetween(j.due, j.sent);
        const double overhead_ms =
            std::max(0.0, ms - lag_ms - j.serverWallMs);
        lag.push_back(lag_ms);
        exec.push_back(j.serverWallMs);
        overhead.push_back(overhead_ms);
        // A traced run records spans for every other job, the rest are
        // its untraced baseline. The spans are built from timestamps
        // the generator takes anyway, so the overhead should read ~0.
        if (!o.trace || i % 2) {
            untraced_lat.push_back(ms);
            continue;
        }
        const auto exec_start =
            j.terminal - std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 std::min(j.serverWallMs, ms - lag_ms)));
        const int job = tracer.add("svc.job", j.due, j.terminal, -1, i);
        tracer.arg(job, "kind", j.kind);
        tracer.arg(job, "tenant", j.tenant);
        tracer.add("svc.lag", j.due, j.sent, job, i);
        tracer.add("svc.overhead", j.sent, exec_start, job, i);
        tracer.add("svc.exec", exec_start, j.terminal, job, i);
        coverage.push_back(tracer.childMs(job) / tracer.span(job).ms());
        traced_lat.push_back(ms);
    }

    auto &m = r.metrics;
    const double window_s = msBetween(start, end) / 1000.0;
    const double p50 = percentile(latency, 0.5);
    const double p90 = percentile(latency, 0.9);
    m["setup_s"] = setup.median();
    // The light jobs' p50: the mean of the `stats` and `verify` medians,
    // each in the core of its own mode. Over all jobs the median lands
    // at the light jobs' 63rd percentile, and over the light jobs
    // together it lands where the `verify` mode ends and the `stats`
    // mode begins; both points moved from run to run.
    m["op_cost_p50"] = (percentile(kind_cost[kStats], 0.5) +
                        percentile(kind_cost[kVerify], 0.5)) /
                       2.0;
    m["op_cost_p90"] = percentile(cost, 0.9);
    m["peak_rss_mib"] = daemon_rss;
    m["log_bytes_per_kinst"] = s.depsBytesPerKinst;
    m["bench.op_ms_p50"] = p50;
    m["bench.op_ms_p90"] = p90;
    m["bench.kips"] = static_cast<double>(replays_ok) *
                      s.replayInstructions / window_s / 1000.0;
    m["bench.goodput_ops_per_s"] = static_cast<double>(good) / window_s;

    m["svc.overhead_ms_p50"] = percentile(overhead, 0.5);
    m["svc.overhead_ms_p90"] = percentile(overhead, 0.9);
    m["svc.exec_ms_p50"] = percentile(exec, 0.5);
    m["svc.exec_ms_p90"] = percentile(exec, 0.9);
    m["svc.daemon_cpu_ms_per_job"] = cpu_ms / static_cast<double>(n);
    m["svc.gen_lag_ms_p90"] = percentile(lag, 0.9);
    m["bench.probe_ms_p50"] = sampler.medianMs();
    if (o.trace) {
        m["bench.trace_overhead"] =
            percentile(traced_lat, 0.5) / percentile(untraced_lat, 0.5) -
            1.0;
        m["bench.span_coverage"] = percentile(coverage, 0.5);
        tracer.writeChrome(o.traceFile);
    }
    return r;
}

} // namespace rrbench
