/**
 * @file
 * Soak and correctness tests for the replay service run in-process: a
 * real svc::Server on a temp Unix socket, hammered by concurrent
 * client threads over the actual wire protocol.
 *
 * Covers the daemon acceptance criteria: zero lost or duplicated
 * responses under 8 concurrent clients and 200+ mixed jobs, typed
 * quota/capacity enforcement, mid-flight cancellation of queued and
 * running jobs, per-job timeouts counted from when a job runs,
 * malformed-line robustness, the loopback TCP listener, bounded RSS,
 * the daemon's thread count, and byte-identical job results between
 * the daemon path and a direct in-process runJob() call.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "svc/client.hh"
#include "svc/job_runner.hh"
#include "svc/protocol.hh"
#include "svc/server.hh"
#include "unsound_logs.hh"

namespace
{

using namespace rr::svc;

constexpr bool kUnderSanitizer =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    true;
#else
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    true;
#else
    false;
#endif
#else
    false;
#endif
#endif

long
maxRssKib()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

Json
parseEvent(const std::string &line)
{
    std::string error;
    auto v = parseJson(line, error);
    EXPECT_TRUE(v.has_value()) << line << " -> " << error;
    return v ? *v : Json();
}

/** Extract the raw result-object bytes from an untagged completed
 *  event: ...,"result":{...}} — everything between the marker and the
 *  envelope's closing brace. */
std::string
rawResult(const std::string &completed_line)
{
    const std::string marker = ",\"result\":";
    const auto pos = completed_line.find(marker);
    EXPECT_NE(pos, std::string::npos) << completed_line;
    if (pos == std::string::npos)
        return "";
    return completed_line.substr(pos + marker.size(),
                                 completed_line.size() - 1 -
                                     (pos + marker.size()));
}

class ServeTest : public ::testing::Test
{
  protected:
    void
    startServer(Server::Options opts)
    {
        ASSERT_TRUE(tryStartServer(std::move(opts)))
            << "server never came up: " << serverError_;
    }

    /**
     * Start the server and wait until it answers a ping, which it can
     * only do once every listener is bound. When run() throws instead
     * (or it never answers), join it and return false, leaving its
     * error in serverError_.
     */
    bool
    tryStartServer(Server::Options opts)
    {
        socket_ = "/tmp/rrsim-soak-" + std::to_string(getpid()) + "-" +
                  ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name() +
                  ".sock";
        opts.socketPath = socket_;
        serverError_.clear();
        serverFailed_ = false;
        server_.emplace(std::move(opts));
        thread_ = std::thread([this] {
            try {
                server_->run();
            } catch (const std::exception &e) {
                serverError_ = e.what();
                serverFailed_ = true;
            }
        });
        for (int i = 0; i < 500 && !serverFailed_; ++i) {
            std::string error;
            if (auto probe = Client::connectUnix(socket_, error)) {
                if (probe->sendLine(R"({"op":"ping"})", error) &&
                    probe->readLine(error, 1.0))
                    return true;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        server_->requestStop(/*drain=*/false);
        thread_.join();
        server_.reset();
        return false;
    }

    void
    TearDown() override
    {
        if (server_) {
            server_->requestStop(/*drain=*/true);
            thread_.join();
            EXPECT_TRUE(serverError_.empty()) << serverError_;
        }
        ::unlink(socket_.c_str());
    }

    Client
    connect()
    {
        std::string error;
        auto c = Client::connectUnix(socket_, error);
        EXPECT_TRUE(c.has_value()) << error;
        return c ? std::move(*c) : Client();
    }

    /** Read lines until @p pred matches; everything seen (match
     *  included) is appended to @p seen. */
    std::optional<std::string>
    pumpUntil(Client &client,
              const std::function<bool(const Json &)> &pred,
              std::vector<std::string> &seen, double timeout_sec)
    {
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration<double>(timeout_sec);
        std::string error;
        while (std::chrono::steady_clock::now() < deadline) {
            auto line = client.readLine(error, 1.0);
            if (!line) {
                if (!error.empty())
                    ADD_FAILURE() << "read error: " << error;
                continue;
            }
            seen.push_back(*line);
            if (pred(parseEvent(*line)))
                return line;
        }
        return std::nullopt;
    }

    /**
     * Ask the daemon, over a connection of its own, whether the record
     * pinning its executor (pinRecord()) is still running, and fail
     * unless it is: one job is running and none has completed or
     * failed (jobs cancelled from the queue do not count).
     */
    void
    expectPinRunning()
    {
        Client monitor = connect();
        std::string error;
        ASSERT_TRUE(monitor.sendLine(R"({"op":"status"})", error)) << error;
        const auto line = monitor.readLine(error, 30.0);
        ASSERT_TRUE(line.has_value()) << error;
        const Json status = parseEvent(*line);
        const Json &sched = status.get("server").get("scheduler");
        EXPECT_EQ(sched.get("running").asInt(), 1) << *line;
        EXPECT_EQ(sched.get("completed").asInt() +
                      sched.get("failed").asInt(),
                  0)
            << "the pinning record ended too early: " << *line;
    }

    std::string socket_;
    std::optional<Server> server_;
    std::thread thread_;
    std::string serverError_;
    std::atomic<bool> serverFailed_{false};
};

/**
 * The submit line of a record that pins an executor while a test fills
 * the queue behind it, with @p fields (`"key":value` pairs) added. It
 * runs about 11 s on a 4-vCPU host, over ten times the longest wait of
 * any test that uses it (a 0.5 s sleep), so the tests do not depend on
 * simulator speed. Every such test ends it by cancel, timeout or
 * abort.
 */
std::string
pinRecord(const std::string &fields)
{
    return R"({"op":"record","kernel":"fft","cores":2,"scale":256,)" +
           fields + "}";
}

/** A tiny recording every fast job (stats/verify/replay) feeds on. */
std::string
makeProbeLog(const std::string &name)
{
    const std::string path = "/tmp/rrsim-soak-probe-" +
                             std::to_string(getpid()) + "-" + name +
                             ".rrlog";
    JobParams p;
    p.kind = JobKind::Record;
    p.kernel = "fft";
    p.cores = 2;
    p.scale = 1;
    p.deps = true;
    p.outFile = path;
    CancelToken token;
    const JobOutcome out = runJob(p, token);
    EXPECT_TRUE(out.ok) << out.message;
    return path;
}

// --- the soak ---------------------------------------------------------

TEST_F(ServeTest, SoakEightClientsMixedJobsNoLostOrDupResponses)
{
    const long rssBefore = maxRssKib();
    const std::string probe = makeProbeLog("soak");

    Server::Options opts;
    opts.sched.executors = 4;
    startServer(opts);

    constexpr int kClients = 8;
    constexpr int kJobsPerClient = 25; // 200 total
    std::mutex mu;
    std::map<std::string, int> terminals; // tag -> terminal count
    std::map<std::string, int> outcomes;  // event name histogram
    std::atomic<int> failures{0};

    auto clientBody = [&](int c) {
        Client client = connect();
        ASSERT_TRUE(client.connected());
        const std::string tenant = "client" + std::to_string(c);
        for (int i = 0; i < kJobsPerClient; ++i) {
            const std::string tag =
                "c" + std::to_string(c) + "-" + std::to_string(i);
            std::string req;
            const std::string common =
                ",\"tenant\":\"" + tenant +
                "\",\"weight\":" + std::to_string(c % 3 + 1) +
                ",\"tag\":\"" + tag + "\"}";
            switch (i % 8) {
              case 0:
                req = R"({"op":"record","kernel":"fft","cores":2)" +
                      common;
                break;
              case 1:
              case 2:
              case 3:
                req = R"({"op":"stats","file":)" + jsonQuote(probe) +
                      common;
                break;
              case 4:
              case 5:
                req = R"({"op":"verify","file":)" + jsonQuote(probe) +
                      common;
                break;
              default:
                req = R"({"op":"replay","jobs":2,"file":)" +
                      jsonQuote(probe) + common;
                break;
            }
            std::string error;
            ASSERT_TRUE(client.sendLine(req, error)) << error;
            auto ack = client.readLine(error, 120.0);
            ASSERT_TRUE(ack.has_value()) << error;
            const Json ackEv = parseEvent(*ack);
            ASSERT_EQ(ackEv.get("event").asString(), "accepted")
                << *ack;
            ASSERT_EQ(ackEv.get("tag").asString(), tag);
            const auto job =
                static_cast<std::uint64_t>(ackEv.get("job").asInt());
            std::vector<std::string> transcript;
            auto terminal =
                client.awaitTerminal(job, transcript, error, 240.0);
            ASSERT_TRUE(terminal.has_value())
                << tag << ": " << error;
            const Json ev = parseEvent(*terminal);
            if (ev.get("event").asString() != "completed")
                ++failures;
            // The lifecycle must have streamed a running event for
            // this job before the terminal one.
            bool sawRunning = false;
            for (const auto &line : transcript) {
                const Json t = parseEvent(line);
                sawRunning |= t.get("event").asString() == "running" &&
                              eventJobId(t) == job;
            }
            EXPECT_TRUE(sawRunning) << tag;
            std::lock_guard lock(mu);
            ++terminals[ev.get("tag").asString()];
            ++outcomes[ev.get("event").asString()];
        }
    };

    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back(clientBody, c);
    for (auto &t : clients)
        t.join();

    // Zero lost, zero duplicated: every tag exactly one terminal.
    EXPECT_EQ(terminals.size(),
              static_cast<std::size_t>(kClients * kJobsPerClient));
    for (const auto &[tag, count] : terminals)
        EXPECT_EQ(count, 1) << tag;
    EXPECT_EQ(outcomes["completed"], kClients * kJobsPerClient);
    EXPECT_EQ(failures.load(), 0);

    if (!kUnderSanitizer) {
        const long growthKib = maxRssKib() - rssBefore;
        EXPECT_LT(growthKib, 1024L * 1024L)
            << "soak grew RSS by " << growthKib << " KiB";
    }
    ::unlink(probe.c_str());
}

// --- admission control + cancellation ---------------------------------

TEST_F(ServeTest, QuotaCapacityAndCancellationUnderBurst)
{
    const std::string probe = makeProbeLog("burst");
    Server::Options opts;
    opts.queue.capacity = 4;
    opts.queue.tenantQuota = 2;
    opts.sched.executors = 1;
    startServer(opts);

    Client client = connect();
    std::string error;
    std::vector<std::string> seen;

    // A long job pins the single executor, so everything submitted
    // after it stays *queued* — where capacity and quota apply.
    ASSERT_TRUE(
        client.sendLine(pinRecord(R"("tenant":"longco","tag":"long")"),
                        error));
    auto acc = pumpUntil(
        client,
        [](const Json &e) {
            return e.get("event").asString() == "accepted";
        },
        seen, 30.0);
    ASSERT_TRUE(acc.has_value());
    const auto longId =
        static_cast<std::uint64_t>(parseEvent(*acc).get("job").asInt());
    ASSERT_TRUE(pumpUntil(
                    client,
                    [&](const Json &e) {
                        return e.get("event").asString() == "running" &&
                               eventJobId(e) == longId;
                    },
                    seen, 30.0)
                    .has_value());

    auto submitStats = [&](const std::string &tenant,
                           const std::string &tag) -> Json {
        EXPECT_TRUE(client.sendLine(R"({"op":"stats","file":)" +
                                        jsonQuote(probe) +
                                        ",\"tenant\":\"" + tenant +
                                        "\",\"tag\":\"" + tag + "\"}",
                                    error))
            << error;
        auto ack = pumpUntil(
            client,
            [](const Json &e) {
                const std::string &ev = e.get("event").asString();
                return ev == "accepted" || ev == "rejected";
            },
            seen, 30.0);
        EXPECT_TRUE(ack.has_value());
        return ack ? parseEvent(*ack) : Json();
    };

    // alice: quota 2 -> 2 accepted, then typed QUOTA_EXCEEDED.
    std::vector<std::uint64_t> aliceIds;
    int aliceQuotaRejects = 0;
    for (int i = 0; i < 6; ++i) {
        const Json ack =
            submitStats("alice", "a" + std::to_string(i));
        if (ack.get("event").asString() == "accepted")
            aliceIds.push_back(
                static_cast<std::uint64_t>(ack.get("job").asInt()));
        else {
            EXPECT_EQ(ack.get("error").asString(), "QUOTA_EXCEEDED");
            ++aliceQuotaRejects;
        }
    }
    EXPECT_EQ(aliceIds.size(), 2u);
    EXPECT_EQ(aliceQuotaRejects, 4);

    // bob: 2 more fit (quota), then the global capacity of 4 is hit.
    std::vector<std::uint64_t> bobIds;
    int bobFullRejects = 0;
    for (int i = 0; i < 3; ++i) {
        const Json ack = submitStats("bob", "b" + std::to_string(i));
        if (ack.get("event").asString() == "accepted")
            bobIds.push_back(
                static_cast<std::uint64_t>(ack.get("job").asInt()));
        else {
            EXPECT_EQ(ack.get("error").asString(), "QUEUE_FULL");
            ++bobFullRejects;
        }
    }
    EXPECT_EQ(bobIds.size(), 2u);
    EXPECT_EQ(bobFullRejects, 1);

    // Cancel a *queued* job: immediate cancel_ok + cancelled(cancel).
    ASSERT_TRUE(client.sendLine(
        R"({"op":"cancel","job":)" + std::to_string(aliceIds[0]) + "}",
        error));
    ASSERT_TRUE(pumpUntil(
                    client,
                    [](const Json &e) {
                        return e.get("event").asString() ==
                               "cancel_ok";
                    },
                    seen, 30.0)
                    .has_value());

    // Cancel the *running* long job: its token fires and the runner
    // unwinds cooperatively.
    expectPinRunning();
    ASSERT_TRUE(client.sendLine(
        R"({"op":"cancel","job":)" + std::to_string(longId) + "}",
        error));

    // Everything still admitted must reach exactly one terminal state:
    // long + aliceIds[0] cancelled, the other three completed.
    std::map<std::uint64_t, std::string> expect;
    expect[longId] = "cancelled";
    expect[aliceIds[0]] = "cancelled";
    expect[aliceIds[1]] = "completed";
    expect[bobIds[0]] = "completed";
    expect[bobIds[1]] = "completed";
    std::map<std::uint64_t, std::string> got;
    while (got.size() < expect.size()) {
        auto line = pumpUntil(
            client,
            [](const Json &e) { return eventIsTerminal(e); }, seen,
            120.0);
        ASSERT_TRUE(line.has_value()) << "lost a terminal event";
        const Json ev = parseEvent(*line);
        const std::uint64_t id = eventJobId(ev);
        ASSERT_EQ(got.count(id), 0u)
            << "duplicated terminal for job " << id;
        got[id] = ev.get("event").asString();
        if (got[id] == "cancelled") {
            EXPECT_EQ(ev.get("reason").asString(), "cancel") << *line;
        }
    }
    EXPECT_EQ(got, expect);
    ::unlink(probe.c_str());
}

TEST_F(ServeTest, PerJobTimeoutCancelsWithTimeoutReason)
{
    startServer(Server::Options{});
    Client client = connect();
    std::string error;
    std::vector<std::string> seen;
    ASSERT_TRUE(client.sendLine(
        pinRecord(R"("timeout":0.05,"tag":"doomed")"), error));
    auto terminal = pumpUntil(
        client,
        [](const Json &e) { return eventIsTerminal(e); }, seen, 60.0);
    ASSERT_TRUE(terminal.has_value());
    const Json ev = parseEvent(*terminal);
    EXPECT_EQ(ev.get("event").asString(), "cancelled") << *terminal;
    EXPECT_EQ(ev.get("reason").asString(), "timeout") << *terminal;
}

TEST_F(ServeTest, TimeoutCountsFromWhenTheJobRuns)
{
    const std::string probe = makeProbeLog("late");
    Server::Options opts;
    opts.sched.executors = 1;
    startServer(opts);
    Client client = connect();
    std::string error;
    std::vector<std::string> seen;

    // A long record pins the only executor.
    ASSERT_TRUE(client.sendLine(pinRecord(R"("tag":"long")"), error));
    auto running = pumpUntil(
        client,
        [](const Json &e) { return e.get("event").asString() == "running"; },
        seen, 30.0);
    ASSERT_TRUE(running.has_value());
    const std::uint64_t longId = eventJobId(parseEvent(*running));

    // A stats job with a 0.2 s timeout waits behind it for longer than
    // that; its deadline starts when it leaves the queue.
    ASSERT_TRUE(client.sendLine(R"({"op":"stats","timeout":0.2,"file":)" +
                                    jsonQuote(probe) + R"(,"tag":"late"})",
                                error));
    auto acc = pumpUntil(
        client,
        [](const Json &e) {
            return e.get("event").asString() == "accepted";
        },
        seen, 30.0);
    ASSERT_TRUE(acc.has_value());
    const std::uint64_t lateId = eventJobId(parseEvent(*acc));
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    expectPinRunning();
    ASSERT_TRUE(client.sendLine(
        R"({"op":"cancel","job":)" + std::to_string(longId) + "}", error));

    std::map<std::uint64_t, std::string> got;
    while (got.size() < 2) {
        auto line = pumpUntil(
            client, [](const Json &e) { return eventIsTerminal(e); },
            seen, 60.0);
        ASSERT_TRUE(line.has_value()) << "lost a terminal event";
        const Json ev = parseEvent(*line);
        got[eventJobId(ev)] = ev.get("event").asString();
    }
    // The record was still running after the 0.5 s wait (checked
    // above), so the stats job queued for at least that long.
    EXPECT_EQ(got[longId], "cancelled");
    EXPECT_EQ(got[lateId], "completed");
    ::unlink(probe.c_str());
}

// --- thread budget ----------------------------------------------------

/** Threads of this process, from /proc/self/task. */
std::size_t
threadCount()
{
    namespace fs = std::filesystem;
    return static_cast<std::size_t>(std::distance(
        fs::directory_iterator("/proc/self/task"), fs::directory_iterator()));
}

TEST_F(ServeTest, DaemonThreadsArePollThreadPlusExecutors)
{
    const std::string probe = makeProbeLog("threads");
    const std::size_t before = threadCount();
    Server::Options opts;
    opts.sched.executors = 3;
    startServer(opts);

    // Twenty mixed jobs, one of them a 4-worker replay of a log with
    // dependency edges, whose decode and engine start pool workers.
    Client client = connect();
    std::string error;
    const std::string file = ",\"file\":" + jsonQuote(probe) + "}";
    for (int i = 0; i < 20; ++i) {
        std::string req;
        switch (i % 4) {
          case 0:
            req = R"({"op":"record","kernel":"fft","cores":2})";
            break;
          case 1:
            req = R"({"op":"stats")" + file;
            break;
          case 2:
            req = R"({"op":"verify")" + file;
            break;
          default:
            req = std::string(R"({"op":"replay","jobs":)") +
                  (i == 3 ? "4" : "2") + file;
            break;
        }
        ASSERT_TRUE(client.sendLine(req, error)) << error;
    }
    std::vector<std::string> seen;
    for (int done = 0; done < 20; ++done) {
        auto line = pumpUntil(
            client, [](const Json &e) { return eventIsTerminal(e); },
            seen, 120.0);
        ASSERT_TRUE(line.has_value()) << "lost a terminal event";
        ASSERT_EQ(parseEvent(*line).get("event").asString(), "completed")
            << *line;
    }

    // Idle: the run() thread plus the executors. A drain's workers are
    // joined before its job completes, but the kernel may list an
    // exiting thread for a moment longer.
    const std::size_t expected = before + 1 + 3;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (threadCount() != expected &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(threadCount(), expected);
    ::unlink(probe.c_str());
}

// --- wire robustness --------------------------------------------------

TEST_F(ServeTest, MalformedLinesGetTypedRejectionsAndServerSurvives)
{
    Server::Options opts;
    opts.maxLineBytes = 4096;
    startServer(opts);
    Client client = connect();
    std::string error;
    const std::string garbage[] = {
        "not json at all",
        "{\"op\":\"nope\"}",
        "{\"op\":\"record\"}",
        "[1,2,3]",
        "{\"op\":\"record\",\"kernel\":\"fft\",\"cores\":-4}",
        std::string(64, '{'),
    };
    for (const std::string &line : garbage) {
        ASSERT_TRUE(client.sendLine(line, error)) << error;
        auto resp = client.readLine(error, 30.0);
        ASSERT_TRUE(resp.has_value()) << error;
        const Json ev = parseEvent(*resp);
        EXPECT_EQ(ev.get("event").asString(), "rejected") << *resp;
        EXPECT_EQ(ev.get("error").asString(), "BAD_REQUEST") << *resp;
    }
    // Still alive and well-behaved afterwards.
    ASSERT_TRUE(client.sendLine(R"({"op":"ping"})", error));
    auto pong = client.readLine(error, 30.0);
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(parseEvent(*pong).get("event").asString(), "pong");

    // An oversized line is rejected and the connection closed; the
    // server itself keeps serving new connections.
    ASSERT_TRUE(
        client.sendLine(std::string(2 * 4096, 'x'), error));
    auto reject = client.readLine(error, 30.0);
    if (reject) {
        EXPECT_EQ(parseEvent(*reject).get("event").asString(),
                  "rejected");
    }
    Client fresh = connect();
    ASSERT_TRUE(fresh.sendLine(R"({"op":"ping"})", error));
    auto pong2 = fresh.readLine(error, 30.0);
    ASSERT_TRUE(pong2.has_value()) << error;
    EXPECT_EQ(parseEvent(*pong2).get("event").asString(), "pong");
}

// --- the loopback TCP listener ----------------------------------------

/** A loopback port that was free a moment ago (0 if none was found). */
int
freeLoopbackPort()
{
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return 0;
    sockaddr_in sin{};
    sin.sin_family = AF_INET;
    sin.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(sin);
    int port = 0;
    if (::bind(fd, reinterpret_cast<sockaddr *>(&sin), sizeof(sin)) == 0 &&
        ::getsockname(fd, reinterpret_cast<sockaddr *>(&sin), &len) == 0)
        port = ntohs(sin.sin_port);
    ::close(fd);
    return port;
}

TEST_F(ServeTest, TcpListenerServesTheProtocol)
{
    const std::string probe = makeProbeLog("tcp");
    // Another process may take the port between our close() and the
    // server's bind(); that fails the server's run(), so retry.
    int port = 0;
    for (int attempt = 0; attempt < 5 && port == 0; ++attempt) {
        Server::Options opts;
        opts.tcpPort = freeLoopbackPort();
        if (opts.tcpPort > 0 && tryStartServer(opts))
            port = opts.tcpPort;
    }
    ASSERT_NE(port, 0) << "no attempt bound a TCP port: " << serverError_;

    std::string error;
    auto client = Client::connectTcp("127.0.0.1", port, error);
    ASSERT_TRUE(client.has_value()) << error;
    ASSERT_TRUE(client->sendLine(R"({"op":"ping"})", error)) << error;
    const auto pong = client->readLine(error, 30.0);
    ASSERT_TRUE(pong.has_value()) << error;
    EXPECT_EQ(parseEvent(*pong).get("event").asString(), "pong");

    ASSERT_TRUE(client->sendLine(
        R"({"op":"stats","file":)" + jsonQuote(probe) + "}", error))
        << error;
    const auto ack = client->readLine(error, 30.0);
    ASSERT_TRUE(ack.has_value()) << error;
    const Json accepted = parseEvent(*ack);
    ASSERT_EQ(accepted.get("event").asString(), "accepted") << *ack;
    std::vector<std::string> transcript;
    const auto terminal = client->awaitTerminal(
        static_cast<std::uint64_t>(accepted.get("job").asInt()),
        transcript, error, 60.0);
    ASSERT_TRUE(terminal.has_value()) << error;
    EXPECT_EQ(parseEvent(*terminal).get("event").asString(), "completed")
        << *terminal;
    ::unlink(probe.c_str());
}

// --- unsound logs: typed failures, and the daemon lives on -----------

TEST_F(ServeTest, UnsoundLogsFailTypedAndTheDaemonStillAnswers)
{
    const std::string prefix =
        "/tmp/rrsim-soak-unsound-" + std::to_string(getpid()) + "-";
    auto logs = rr::testlogs::writeUnsoundLogs(prefix);
    // And a file the reader refuses when it opens it.
    logs.push_back({"huge-core-count", prefix + "huge-core-count.rrlog",
                    "header names 4294967295 cores"});
    rr::testlogs::writeHugeCoreCountLog(logs.back().path);
    startServer(Server::Options{});
    Client client = connect();
    std::string error;
    for (const auto &log : logs) {
        SCOPED_TRACE(log.name);
        std::string req =
            R"({"op":"replay","jobs":2,"file":)" + jsonQuote(log.path);
        if (log.allowPartial)
            req += R"(,"allowPartial":true)";
        ASSERT_TRUE(client.sendLine(req + "}", error)) << error;
        auto ack = client.readLine(error, 60.0);
        ASSERT_TRUE(ack.has_value()) << error;
        const auto job = static_cast<std::uint64_t>(
            parseEvent(*ack).get("job").asInt());
        std::vector<std::string> transcript;
        auto terminal =
            client.awaitTerminal(job, transcript, error, 120.0);
        ASSERT_TRUE(terminal.has_value()) << error;
        const Json ev = parseEvent(*terminal);
        if (log.refusal) {
            EXPECT_EQ(ev.get("event").asString(), "failed") << *terminal;
            EXPECT_EQ(ev.get("error").asString(), "MISMATCH") << *terminal;
            EXPECT_NE(ev.get("message").asString().find(log.refusal),
                      std::string::npos)
                << *terminal;
        } else {
            EXPECT_EQ(ev.get("event").asString(), "completed")
                << *terminal;
        }
        ASSERT_TRUE(client.sendLine(R"({"op":"ping"})", error)) << error;
        auto pong = client.readLine(error, 30.0);
        ASSERT_TRUE(pong.has_value()) << error;
        EXPECT_EQ(parseEvent(*pong).get("event").asString(), "pong");
    }
    for (const auto &log : logs)
        ::unlink(log.path.c_str());
}

// --- byte identity: daemon result vs direct in-process run ------------

TEST_F(ServeTest, DaemonResultsAreByteIdenticalToDirectRuns)
{
    const std::string probe = makeProbeLog("ident");
    startServer(Server::Options{});

    // No tag on these submissions: rawResult() then spans to the
    // envelope's closing brace.
    const std::string requests[] = {
        R"({"op":"record","kernel":"fft","cores":2,"scale":1})",
        R"({"op":"replay","jobs":2,"file":)" + jsonQuote(probe) + "}",
        R"({"op":"verify","file":)" + jsonQuote(probe) + "}",
        R"({"op":"stats","file":)" + jsonQuote(probe) + "}",
    };
    for (const std::string &req : requests) {
        Client client = connect();
        std::string error;
        ASSERT_TRUE(client.sendLine(req, error)) << error;
        auto ack = client.readLine(error, 60.0);
        ASSERT_TRUE(ack.has_value()) << error;
        const auto job = static_cast<std::uint64_t>(
            parseEvent(*ack).get("job").asInt());
        std::vector<std::string> transcript;
        auto terminal =
            client.awaitTerminal(job, transcript, error, 240.0);
        ASSERT_TRUE(terminal.has_value()) << req << ": " << error;
        ASSERT_EQ(parseEvent(*terminal).get("event").asString(),
                  "completed")
            << *terminal;

        // Re-run the identical params in-process: the daemon's result
        // bytes must match exactly.
        auto parsed = parseRequest(req, error);
        ASSERT_TRUE(parsed.has_value()) << error;
        CancelToken token;
        const JobOutcome direct = runJob(parsed->params, token);
        ASSERT_TRUE(direct.ok) << direct.message;
        EXPECT_EQ(rawResult(*terminal), direct.resultJson) << req;
    }
    ::unlink(probe.c_str());
}

// --- submit-and-hangup ------------------------------------------------

TEST_F(ServeTest, SubmitAndHangupStillAdmitsBufferedRequest)
{
    const std::string probe = makeProbeLog("hangup");
    startServer(Server::Options{});

    // Write the request and close immediately: the data and the FIN
    // usually arrive in the same poll wake, and the server must parse
    // the buffered line anyway — fire-and-forget is legal.
    {
        Client client = connect();
        std::string error;
        ASSERT_TRUE(client.sendLine(R"({"op":"stats","file":)" +
                                        jsonQuote(probe) +
                                        R"(,"tag":"fire-and-forget"})",
                                    error))
            << error;
        client.close();
    }

    // Observable through a second connection: the job was admitted
    // (not silently dropped) and runs to completion.
    Client monitor = connect();
    std::string error;
    bool done = false;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    std::int64_t admitted = 0;
    while (!done && std::chrono::steady_clock::now() < deadline) {
        ASSERT_TRUE(monitor.sendLine(R"({"op":"status"})", error))
            << error;
        auto line = monitor.readLine(error, 5.0);
        ASSERT_TRUE(line.has_value()) << error;
        const Json e = parseEvent(*line);
        admitted = e.get("server").get("queue").get("admitted").asInt();
        const Json &sched = e.get("server").get("scheduler");
        done = sched.get("completed").asInt() +
                   sched.get("failed").asInt() >=
               1;
        if (!done)
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_TRUE(done) << "hung-up submit never completed";
    EXPECT_EQ(admitted, 1);
    ::unlink(probe.c_str());
}

// --- shutdown cannot hang on a client that stopped reading ------------

TEST_F(ServeTest, ShutdownIsBoundedWhenAClientStopsReading)
{
    const std::string probe = makeProbeLog("deaf");
    Server::Options opts;
    opts.queue.capacity = 4000;
    opts.queue.tenantQuota = 4000;
    opts.sched.executors = 2;
    opts.flushTimeoutMs = 300;
    startServer(opts);

    // A client that submits a pile of jobs and never reads a byte:
    // its events fill the socket buffer and then the server-side
    // outbuf, which used to wedge drain-shutdown forever.
    Client deaf = connect();
    std::string error;
    const std::string req = R"({"op":"stats","file":)" +
                            jsonQuote(probe) + R"(,"tag":")" +
                            std::string(120, 'x') + R"("})";
    constexpr int kJobs = 1000;
    for (int i = 0; i < kJobs; ++i)
        ASSERT_TRUE(deaf.sendLine(req, error)) << error;

    // Wait until every job has finished so the only thing shutdown
    // still waits on is the deaf client's unflushed output.
    Client monitor = connect();
    const auto workDeadline =
        std::chrono::steady_clock::now() + std::chrono::minutes(5);
    for (;;) {
        ASSERT_LT(std::chrono::steady_clock::now(), workDeadline)
            << "jobs never finished";
        ASSERT_TRUE(monitor.sendLine(R"({"op":"status"})", error))
            << error;
        auto line = monitor.readLine(error, 5.0);
        ASSERT_TRUE(line.has_value()) << error;
        const Json e = parseEvent(*line);
        const Json &sched = e.get("server").get("scheduler");
        if (sched.get("completed").asInt() +
                sched.get("failed").asInt() +
                sched.get("cancelled").asInt() >=
            kJobs)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    const auto t0 = std::chrono::steady_clock::now();
    server_->requestStop(/*drain=*/true);
    thread_.join();
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_LT(elapsed, std::chrono::seconds(30))
        << "drain-shutdown stalled on an unread connection";
    EXPECT_TRUE(serverError_.empty()) << serverError_;
    server_.reset();
    ::unlink(probe.c_str());
}

// --- queued descriptors stay cheap ------------------------------------

TEST_F(ServeTest, ThousandsOfQueuedJobsStayDescriptorSized)
{
    const std::string probe = makeProbeLog("depth");
    Server::Options opts;
    opts.queue.capacity = 5000;
    opts.queue.tenantQuota = 5000;
    opts.sched.executors = 1;
    startServer(opts);

    Client client = connect();
    std::string error;
    // Pin the executor so submissions pile up in the queue.
    ASSERT_TRUE(client.sendLine(pinRecord(R"("tag":"pin")"), error));
    std::vector<std::string> seen;
    ASSERT_TRUE(pumpUntil(
                    client,
                    [](const Json &e) {
                        return e.get("event").asString() == "running";
                    },
                    seen, 30.0)
                    .has_value());

    const long rssBefore = maxRssKib();
    constexpr int kQueued = 3000;
    const std::string req = R"({"op":"stats","file":)" +
                            jsonQuote(probe) + R"(,"tag":"q"})";
    for (int i = 0; i < kQueued; ++i)
        ASSERT_TRUE(client.sendLine(req, error)) << error;
    int accepted = 0;
    while (accepted < kQueued) {
        auto line = pumpUntil(
            client,
            [](const Json &e) {
                return e.get("event").asString() == "accepted";
            },
            seen, 60.0);
        ASSERT_TRUE(line.has_value());
        ++accepted;
    }
    if (!kUnderSanitizer) {
        const long growthKib = maxRssKib() - rssBefore;
        EXPECT_LT(growthKib, 64L * 1024L)
            << kQueued << " queued descriptors grew RSS by "
            << growthKib << " KiB";
    }
    expectPinRunning();
    // Abort instead of draining 3000 queued stats jobs. Close the
    // client first: 3000 cancelled events would otherwise pile into an
    // outbuf nobody reads, and shutdown waits for flushed connections.
    client.close();
    server_->requestStop(/*drain=*/false);
    thread_.join();
    server_.reset();
    ::unlink(probe.c_str());
}

// --- a path that is not a regular file: typed failure, no hang -------

/**
 * Runs `rrsim serve` as a child process, so that a test can kill a
 * daemon that hangs instead of hanging itself. TearDown kills a daemon
 * that is still running and removes the socket and the FIFO.
 */
class ServeDaemon : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const std::string base =
            "/tmp/rrsim-daemon-" + std::to_string(getpid());
        socket_ = base + ".sock";
        fifo_ = base + ".pipe";
        ::unlink(fifo_.c_str());
        ASSERT_EQ(::mkfifo(fifo_.c_str(), 0600), 0);
        pid_ = ::fork();
        ASSERT_GE(pid_, 0);
        if (pid_ == 0) {
            const int null = ::open("/dev/null", O_WRONLY);
            ::dup2(null, STDOUT_FILENO);
            ::execl(RRSIM_BIN, RRSIM_BIN, "serve", "--socket",
                    socket_.c_str(), static_cast<char *>(nullptr));
            ::_exit(127);
        }
    }

    void
    TearDown() override
    {
        if (pid_ > 0 && exitCodeWithin(0.0) == -1) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
        ::unlink(socket_.c_str());
        ::unlink(fifo_.c_str());
    }

    /** A client once the daemon listens, or nullopt after 30 s. */
    std::optional<Client>
    connect()
    {
        for (int i = 0; i < 3000; ++i) {
            std::string error;
            if (auto c = Client::connectUnix(socket_, error))
                return c;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        return std::nullopt;
    }

    /**
     * The daemon's exit code once it exits, waiting up to @p seconds;
     * -1 while it still runs (or when a signal ended it).
     */
    int
    exitCodeWithin(double seconds)
    {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::duration<double>(seconds);
        for (;;) {
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
            }
            if (std::chrono::steady_clock::now() >= deadline)
                return -1;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
    }

    std::string socket_;
    std::string fifo_; ///< a FIFO that never gets a writer
    pid_t pid_ = -1;
};

TEST_F(ServeDaemon, FifoVerifyFailsAsIoAndTheDaemonStillStops)
{
    // A verify job on a FIFO with no writer fails at once with class
    // IO; the daemon then answers a ping, and an aborting shutdown
    // ends it. A reader that blocked opening the FIFO would hold its
    // executor, and the daemon, until the FIFO got a writer.
    std::optional<Client> client = connect();
    ASSERT_TRUE(client.has_value()) << "daemon never came up";

    std::string error;
    ASSERT_TRUE(client->sendLine(
        R"({"op":"verify","timeout":1,"file":)" + jsonQuote(fifo_) + "}",
        error))
        << error;
    const auto ack = client->readLine(error, 30.0);
    ASSERT_TRUE(ack.has_value()) << error;
    const auto job =
        static_cast<std::uint64_t>(parseEvent(*ack).get("job").asInt());
    std::vector<std::string> transcript;
    const auto terminal = client->awaitTerminal(job, transcript, error, 10.0);
    ASSERT_TRUE(terminal.has_value()) << "the verify job never ended";
    const Json ev = parseEvent(*terminal);
    EXPECT_EQ(ev.get("event").asString(), "failed") << *terminal;
    EXPECT_EQ(ev.get("error").asString(), "IO") << *terminal;
    EXPECT_NE(ev.get("message").asString().find("not a regular file"),
              std::string::npos)
        << *terminal;

    ASSERT_TRUE(client->sendLine(R"({"op":"ping"})", error)) << error;
    const auto pong = client->readLine(error, 10.0);
    ASSERT_TRUE(pong.has_value()) << error;
    EXPECT_EQ(parseEvent(*pong).get("event").asString(), "pong");

    ASSERT_TRUE(client->sendLine(R"({"op":"shutdown","drain":false})",
                                 error))
        << error;
    EXPECT_EQ(exitCodeWithin(10.0), 0);
}

} // namespace
