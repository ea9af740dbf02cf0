/**
 * @file
 * Replay-service throughput microbenchmark: starts a real svc::Server
 * in-process on a temp Unix socket and hammers it over the actual wire
 * protocol, measuring the daemon's job-turnaround capacity:
 *
 *  - ping_roundtrip   protocol + poll-loop floor: request->response
 *                     round-trips per second on one connection;
 *  - submit_stats     full job lifecycle (admit -> queue -> executor
 *                     pop -> execute -> stream) for the cheapest job kind
 *                     (stats over a small recording), N concurrent
 *                     client connections;
 *  - submit_record    same lifecycle for simulation-heavy jobs (record
 *                     fft), where executor parallelism dominates.
 *
 * Each stage reports jobs (or round-trips) per second plus p50/p99
 * client-observed latency. Results land in BENCH_serve_throughput.json
 * with the same shape tools/perf_compare.py consumes
 * (stages.*.intervals_per_sec carries the rate).
 */

#include "bench/common.hh"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "svc/client.hh"
#include "svc/job_runner.hh"
#include "svc/protocol.hh"
#include "svc/server.hh"

namespace
{

using namespace rr;
using Clock = std::chrono::steady_clock;

struct Options
{
    std::uint32_t clients = 4;
    std::uint32_t jobsPerClient = 50;
    std::uint32_t executors = 4;
    bool tiny = false; ///< CI smoke: fewer clients/jobs
    std::string json = "BENCH_serve_throughput.json";
};

[[noreturn]] void
usage(const char *prog)
{
    std::fprintf(stderr,
                 "usage: %s [--clients N] [--jobs-per-client M]\n"
                 "          [--exec-jobs E] [--tiny] [--json FILE]\n"
                 "  --clients N          concurrent connections "
                 "(default 4)\n"
                 "  --jobs-per-client M  stats jobs per connection "
                 "(default 50)\n"
                 "  --exec-jobs E        server executor threads "
                 "(default 4)\n"
                 "  --tiny               CI smoke size\n"
                 "  --json FILE          output file (default "
                 "BENCH_serve_throughput.json)\n",
                 prog);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--clients" && i + 1 < argc)
            o.clients = static_cast<std::uint32_t>(
                std::strtoul(argv[++i], nullptr, 10));
        else if (arg == "--jobs-per-client" && i + 1 < argc)
            o.jobsPerClient = static_cast<std::uint32_t>(
                std::strtoul(argv[++i], nullptr, 10));
        else if (arg == "--exec-jobs" && i + 1 < argc)
            o.executors = static_cast<std::uint32_t>(
                std::strtoul(argv[++i], nullptr, 10));
        else if (arg == "--tiny")
            o.tiny = true;
        else if (arg == "--json" && i + 1 < argc)
            o.json = argv[++i];
        else if (arg.rfind("--json=", 0) == 0)
            o.json = arg.substr(7);
        else
            usage(argv[0]);
    }
    if (o.tiny) {
        o.clients = std::min<std::uint32_t>(o.clients, 2);
        o.jobsPerClient = std::min<std::uint32_t>(o.jobsPerClient, 10);
    }
    if (o.clients == 0 || o.jobsPerClient == 0)
        usage(argv[0]);
    return o;
}

struct StageResult
{
    std::string name;
    std::uint64_t ops = 0;
    double seconds = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    double rate() const
    {
        return seconds > 0.0 ? static_cast<double>(ops) / seconds : 0.0;
    }
};

double
percentileMs(std::vector<double> &ms, double p)
{
    if (ms.empty())
        return 0.0;
    std::sort(ms.begin(), ms.end());
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(ms.size() - 1));
    return ms[idx];
}

/** Await the terminal event of @p job; dies on failure (a bench run
 *  with failing jobs measures nothing). */
void
mustComplete(svc::Client &client, std::uint64_t job)
{
    std::vector<std::string> transcript;
    std::string error;
    auto terminal = client.awaitTerminal(job, transcript, error, 600.0);
    if (!terminal) {
        std::fprintf(stderr, "FATAL: lost job %llu: %s\n",
                     static_cast<unsigned long long>(job),
                     error.c_str());
        std::exit(1);
    }
    if (terminal->find("\"event\":\"completed\"") == std::string::npos) {
        std::fprintf(stderr, "FATAL: job %llu did not complete: %s\n",
                     static_cast<unsigned long long>(job),
                     terminal->c_str());
        std::exit(1);
    }
}

/** Submit one request and return its accepted job id (dies on
 *  rejection). */
std::uint64_t
mustSubmit(svc::Client &client, const std::string &req)
{
    std::string error;
    if (!client.sendLine(req, error)) {
        std::fprintf(stderr, "FATAL: send failed: %s\n", error.c_str());
        std::exit(1);
    }
    auto ack = client.readLine(error, 600.0);
    if (!ack || ack->find("\"event\":\"accepted\"") == std::string::npos) {
        std::fprintf(stderr, "FATAL: submission not accepted: %s\n",
                     ack ? ack->c_str() : error.c_str());
        std::exit(1);
    }
    std::string perr;
    auto ev = svc::parseJson(*ack, perr);
    return ev ? static_cast<std::uint64_t>(ev->get("job").asInt()) : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rrbench;
    const Options o = parseArgs(argc, argv);

    const std::string socket =
        "/tmp/rrsim-bench-" +
        std::to_string(static_cast<unsigned long>(::getpid())) +
        ".sock";
    const std::string probe = socket + ".rrlog";

    // The recording every stats job feeds on.
    {
        svc::JobParams p;
        p.kind = svc::JobKind::Record;
        p.kernel = "fft";
        p.cores = 2;
        p.scale = 1;
        p.deps = true;
        p.outFile = probe;
        svc::CancelToken token;
        const svc::JobOutcome out = svc::runJob(p, token);
        if (!out.ok) {
            std::fprintf(stderr, "FATAL: probe recording failed: %s\n",
                         out.message.c_str());
            return 1;
        }
    }

    svc::Server::Options sopts;
    sopts.socketPath = socket;
    sopts.sched.executors = o.executors;
    svc::Server server(sopts);
    std::thread serverThread([&server] { server.run(); });
    for (int i = 0; i < 500; ++i) {
        std::string error;
        if (svc::Client::connectUnix(socket, error))
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    printTitle("Replay-service throughput (" +
               std::to_string(o.clients) + " clients x " +
               std::to_string(o.jobsPerClient) + " jobs, " +
               std::to_string(o.executors) + " executors)");

    std::vector<StageResult> stages;

    // -- ping round-trips ---------------------------------------------
    {
        std::string error;
        auto client = svc::Client::connectUnix(socket, error);
        if (!client) {
            std::fprintf(stderr, "FATAL: connect: %s\n", error.c_str());
            return 1;
        }
        const std::uint64_t pings = o.tiny ? 200 : 2000;
        std::vector<double> lat;
        lat.reserve(pings);
        const auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < pings; ++i) {
            const auto s0 = Clock::now();
            if (!client->sendLine(R"({"op":"ping"})", error) ||
                !client->readLine(error, 600.0)) {
                std::fprintf(stderr, "FATAL: ping: %s\n",
                             error.c_str());
                return 1;
            }
            lat.push_back(std::chrono::duration<double, std::milli>(
                              Clock::now() - s0)
                              .count());
        }
        StageResult s;
        s.name = "ping_roundtrip";
        s.ops = pings;
        s.seconds =
            std::chrono::duration<double>(Clock::now() - t0).count();
        s.p50Ms = percentileMs(lat, 0.50);
        s.p99Ms = percentileMs(lat, 0.99);
        stages.push_back(s);
    }

    // -- concurrent job stages ----------------------------------------
    const auto jobStage = [&](const char *name, const std::string &req,
                              std::uint32_t per_client) {
        std::vector<std::thread> threads;
        std::vector<std::vector<double>> lats(o.clients);
        const auto t0 = Clock::now();
        for (std::uint32_t c = 0; c < o.clients; ++c) {
            threads.emplace_back([&, c] {
                std::string error;
                auto client = svc::Client::connectUnix(socket, error);
                if (!client) {
                    std::fprintf(stderr, "FATAL: connect: %s\n",
                                 error.c_str());
                    std::exit(1);
                }
                for (std::uint32_t i = 0; i < per_client; ++i) {
                    const auto s0 = Clock::now();
                    mustComplete(*client, mustSubmit(*client, req));
                    lats[c].push_back(
                        std::chrono::duration<double, std::milli>(
                            Clock::now() - s0)
                            .count());
                }
            });
        }
        for (auto &t : threads)
            t.join();
        StageResult s;
        s.name = name;
        s.ops = static_cast<std::uint64_t>(o.clients) * per_client;
        s.seconds =
            std::chrono::duration<double>(Clock::now() - t0).count();
        std::vector<double> all;
        for (auto &l : lats)
            all.insert(all.end(), l.begin(), l.end());
        s.p50Ms = percentileMs(all, 0.50);
        s.p99Ms = percentileMs(all, 0.99);
        stages.push_back(s);
    };

    jobStage("submit_stats",
             R"({"op":"stats","file":)" + svc::jsonQuote(probe) + "}",
             o.jobsPerClient);
    jobStage("submit_record",
             R"({"op":"record","kernel":"fft","cores":2})",
             std::max<std::uint32_t>(o.jobsPerClient / 10, 2));

    server.requestStop(/*drain=*/true);
    serverThread.join();
    std::remove(probe.c_str());

    // -- report --------------------------------------------------------
    printColumns({"stage", "ops", "ops/s", "p50 ms", "p99 ms"});
    for (const StageResult &s : stages) {
        printCell(s.name);
        printCell(static_cast<double>(s.ops), 0);
        printCell(s.rate(), 1);
        printCell(s.p50Ms, 3);
        printCell(s.p99Ms, 3);
        endRow();
    }

    std::ofstream os(o.json);
    if (os) {
        os << "{\n"
           << "  \"bench\": \"serve_throughput\",\n"
           << "  \"kernel\": \"fft\",\n"
           << "  \"scale\": 1,\n"
           << "  \"clients\": " << o.clients << ",\n"
           << "  \"executors\": " << o.executors << ",\n"
           << "  \"stages\": {\n";
        for (std::size_t i = 0; i < stages.size(); ++i) {
            const StageResult &s = stages[i];
            os << "    \"" << s.name << "\": {"
               << "\"seconds\": " << s.seconds << ", "
               << "\"intervals_per_sec\": " << s.rate() << ", "
               << "\"ops\": " << s.ops << ", "
               << "\"p50_ms\": " << s.p50Ms << ", "
               << "\"p99_ms\": " << s.p99Ms << "}"
               << (i + 1 < stages.size() ? "," : "") << "\n";
        }
        os << "  }\n}\n";
        std::printf("[json] saved %s\n", o.json.c_str());
    } else {
        std::fprintf(stderr, "[json] cannot open %s\n", o.json.c_str());
    }
    return 0;
}
