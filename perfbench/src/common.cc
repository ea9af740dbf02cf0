#include "common.hh"

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>

namespace rrbench
{

rr::svc::JobParams
recordParams(std::uint64_t scale, const std::string &out, bool deps)
{
    rr::svc::JobParams p;
    p.kind = rr::svc::JobKind::Record;
    p.kernel = "raytrace";
    p.cores = 8;
    p.scale = scale;
    p.mode = rr::sim::RecorderMode::Opt;
    p.intervalCap = deps ? 128 : 0;
    p.deps = deps;
    p.coherence = rr::sim::CoherenceKind::Snoopy;
    p.outFile = out;
    return p;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p * static_cast<double>(v.size()));
    const std::size_t idx =
        rank < 1.0 ? 0
                   : std::min(v.size() - 1,
                              static_cast<std::size_t>(rank) - 1);
    return v[idx];
}

// --- host-speed probe ---------------------------------------------------

namespace
{

constexpr std::size_t kProbeWords = std::size_t{1} << 19; // 2 MiB

std::uint64_t
splitmix(std::uint64_t &s)
{
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Probe::Probe(std::uint64_t seed, std::uint32_t iters)
    : table_(kProbeWords), seed_(seed), iters_(iters)
{
    std::uint64_t s = seed;
    for (auto &w : table_)
        w = static_cast<std::uint32_t>(splitmix(s));
}

double
Probe::run()
{
    const auto t0 = Clock::now();
    const std::uint64_t mask = kProbeWords - 1;
    std::uint64_t x = seed_ | 1;
    std::uint64_t acc = sink_;
    // Independent random loads from a table the size of a core's L2:
    // of the loops tried, the one whose time tracks the simulator's
    // through the host's fast and slow phases most closely.
    for (std::uint32_t i = 0; i < iters_; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        acc += table_[(x >> 40) & mask];
    }
    sink_ = acc;
    return msBetween(t0, Clock::now());
}

// --- tracer -------------------------------------------------------------

int
Tracer::begin(const std::string &name, int parent, std::uint64_t op)
{
    const auto now = Clock::now();
    return add(name, now, now, parent, op);
}

void
Tracer::end(int id)
{
    spans_.at(id).end = Clock::now();
}

int
Tracer::add(const std::string &name, Clock::time_point start,
            Clock::time_point end, int parent, std::uint64_t op)
{
    Span s;
    s.name = name;
    s.start = start;
    s.end = end;
    s.parent = parent;
    s.op = op;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
}

void
Tracer::arg(int id, const std::string &key, double value)
{
    spans_.at(id).args.emplace_back(key, value);
}

double
Tracer::childMs(int parent) const
{
    double sum = 0.0;
    for (const Span &s : spans_)
        if (s.parent == parent)
            sum += s.ms();
    return sum;
}

double
Tracer::childMs(int parent, const std::string &name) const
{
    double sum = 0.0;
    for (const Span &s : spans_)
        if (s.parent == parent && s.name == name)
            sum += s.ms();
    return sum;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    const Clock::time_point origin =
        spans_.empty() ? Clock::now() : spans_.front().start;
    const auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin)
            .count();
    };
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
           << "\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":" << us(s.start)
           << ",\"dur\":" << us(s.end) - us(s.start)
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
           << ",\"op\":" << s.op;
        for (const auto &[k, v] : s.args)
            os << ",\"" << k << "\":" << v;
        os << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

// --- report -------------------------------------------------------------

void
Report::error(const std::string &msg)
{
    // Keep the first few verbatim; the count says the rest.
    if (errors.size() < 20)
        errors.push_back(msg);
}

double
SetupTimer::median() const
{
    std::vector<double> v = seconds;
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMib(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream ls(line.substr(6));
            double kib = 0.0;
            ls >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

void
resetPeakRss(pid_t pid)
{
    std::ofstream out("/proc/" + std::to_string(pid) + "/clear_refs");
    out << "5\n";
}

bool
makeDirs(const std::string &dir)
{
    std::string cur;
    std::size_t pos = 0;
    while (pos != std::string::npos) {
        pos = dir.find('/', pos + 1);
        cur = dir.substr(0, pos);
        if (!cur.empty() && ::mkdir(cur.c_str(), 0755) != 0 &&
            errno != EEXIST)
            return false;
    }
    return true;
}

// --- clean-up registry ----------------------------------------------------

namespace
{

// Fixed storage so the signal handler never allocates.
constexpr int kMaxFiles = 32;
constexpr int kMaxDirs = 4;
constexpr std::size_t kPathBytes = 512;
char g_files[kMaxFiles][kPathBytes];
char g_dirs[kMaxDirs][kPathBytes];
std::atomic<int> g_nfiles{0};
std::atomic<int> g_ndirs{0};
std::atomic<pid_t> g_daemon{0};
static_assert(std::atomic<pid_t>::is_always_lock_free);

void
stopDaemon()
{
    const pid_t pid = g_daemon.exchange(0);
    if (pid <= 0)
        return;
    ::kill(pid, SIGTERM); // drains
    const timespec tick{0, 10'000'000};
    for (int i = 0; i < 300; ++i) {
        if (::waitpid(pid, nullptr, WNOHANG) == pid)
            return;
        ::nanosleep(&tick, nullptr);
    }
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
}

void
removeAll()
{
    for (int i = g_nfiles.load() - 1; i >= 0; --i)
        ::unlink(g_files[i]);
    for (int i = g_ndirs.load() - 1; i >= 0; --i)
        ::rmdir(g_dirs[i]);
}

void
onSignal(int sig)
{
    stopDaemon();
    removeAll();
    ::_exit(128 + sig);
}

void
remember(char (*slots)[kPathBytes], std::atomic<int> &count, int cap,
         const std::string &path)
{
    const int n = count.load();
    for (int i = 0; i < n; ++i)
        if (path == slots[i])
            return;
    if (n >= cap || path.size() >= kPathBytes) {
        std::fprintf(stderr, "rrbench: cannot track temp path %s\n",
                     path.c_str());
        return;
    }
    std::memcpy(slots[n], path.c_str(), path.size() + 1);
    count.store(n + 1);
}

} // namespace

void
installCleanup()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onSignal;
    sigemptyset(&sa.sa_mask);
    for (int sig : {SIGINT, SIGTERM, SIGHUP})
        ::sigaction(sig, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);
}

void
registerTempFile(const std::string &path)
{
    remember(g_files, g_nfiles, kMaxFiles, path);
}

void
registerTempDir(const std::string &path)
{
    remember(g_dirs, g_ndirs, kMaxDirs, path);
}

void
registerDaemon(pid_t pid)
{
    g_daemon.store(pid);
}

void
forgetDaemon()
{
    g_daemon.store(0);
}

void
cleanupAll()
{
    stopDaemon();
    removeAll();
}

} // namespace rrbench
