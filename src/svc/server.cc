#include "svc/server.hh"

#include <cctype>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "svc/protocol.hh"

namespace rr::svc
{

namespace
{

[[noreturn]] void
sysFail(const std::string &what)
{
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

void
closeFd(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

} // namespace

Server::Server(Options opts)
    : opts_(std::move(opts)), queue_(opts_.queue),
      scheduler_(queue_, opts_.sched,
                 [this](std::uint64_t conn, std::string event) {
                     {
                         std::lock_guard lk(mailboxMu_);
                         mailbox_.emplace_back(conn,
                                               std::move(event));
                     }
                     const char b = 'e';
                     [[maybe_unused]] ssize_t n =
                         ::write(pipeWrite_, &b, 1);
                 })
{
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC | O_NONBLOCK) != 0)
        sysFail("pipe2");
    pipeRead_ = fds[0];
    pipeWrite_ = fds[1];
}

Server::~Server()
{
    teardown();
    closeFd(pipeRead_);
    closeFd(pipeWrite_);
}

void
Server::requestStop(bool drain)
{
    // Async-signal-safe: one write() on the self-pipe.
    const char b = drain ? 'd' : 'a';
    [[maybe_unused]] ssize_t n = ::write(pipeWrite_, &b, 1);
}

void
Server::setupListeners()
{
    // Unix-domain listener.
    unixFd_ = ::socket(AF_UNIX,
                       SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (unixFd_ < 0)
        sysFail("socket(AF_UNIX)");
    sockaddr_un sun{};
    sun.sun_family = AF_UNIX;
    if (opts_.socketPath.size() >= sizeof(sun.sun_path))
        throw std::runtime_error("socket path too long: " +
                                 opts_.socketPath);
    std::strncpy(sun.sun_path, opts_.socketPath.c_str(),
                 sizeof(sun.sun_path) - 1);
    ::unlink(opts_.socketPath.c_str());
    if (::bind(unixFd_, reinterpret_cast<sockaddr *>(&sun),
               sizeof(sun)) != 0)
        sysFail("bind(" + opts_.socketPath + ")");
    if (::listen(unixFd_, 64) != 0)
        sysFail("listen(" + opts_.socketPath + ")");

    // Optional loopback TCP listener (tcpPort 0 = none).
    if (opts_.tcpPort > 0) {
        tcpFd_ = ::socket(
            AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
        if (tcpFd_ < 0)
            sysFail("socket(AF_INET)");
        const int one = 1;
        ::setsockopt(tcpFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in sin{};
        sin.sin_family = AF_INET;
        sin.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        sin.sin_port =
            htons(static_cast<std::uint16_t>(opts_.tcpPort));
        if (::bind(tcpFd_, reinterpret_cast<sockaddr *>(&sin),
                   sizeof(sin)) != 0)
            sysFail("bind(127.0.0.1:" +
                    std::to_string(opts_.tcpPort) + ")");
        if (::listen(tcpFd_, 64) != 0)
            sysFail("listen(tcp)");
    }
}

void
Server::teardown()
{
    for (auto &[id, conn] : conns_)
        closeFd(conn.fd);
    conns_.clear();
    closeFd(tcpFd_);
    if (unixFd_ >= 0) {
        closeFd(unixFd_);
        ::unlink(opts_.socketPath.c_str());
    }
}

int
Server::acceptOn(int listen_fd)
{
    return ::accept4(listen_fd, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
}

void
Server::deliver(std::uint64_t conn_id, const std::string &event)
{
    auto it = conns_.find(conn_id);
    // Events for a connection that went away are dropped: the jobs
    // themselves keep running (fire-and-forget submits are legal).
    if (it == conns_.end() || it->second.fd < 0)
        return;
    it->second.outbuf += event;
    it->second.outbuf += '\n';
    if (it->second.outbuf.size() > opts_.maxOutbufBytes) {
        // Peer stopped reading. Mirror the request-line cap: drop the
        // connection rather than buffer without bound — its jobs keep
        // running, further events are discarded.
        it->second.outbuf.clear();
        closeFd(it->second.fd);
    }
}

void
Server::drainMailbox()
{
    std::vector<std::pair<std::uint64_t, std::string>> batch;
    {
        std::lock_guard lk(mailboxMu_);
        batch.swap(mailbox_);
    }
    for (auto &[conn_id, event] : batch)
        deliver(conn_id, event);
}

std::string
Server::statusBody()
{
    const JobQueue::Counters q = queue_.counters();
    const Scheduler::Snapshot s = scheduler_.snapshot();
    std::string body = "{\"queue\":{\"depth\":" +
                       std::to_string(queue_.depth()) +
                       ",\"admitted\":" + std::to_string(q.admitted) +
                       ",\"rejectedFull\":" +
                       std::to_string(q.rejectedFull) +
                       ",\"rejectedQuota\":" +
                       std::to_string(q.rejectedQuota) + "}";
    body += ",\"scheduler\":{\"running\":" + std::to_string(s.running) +
            ",\"completed\":" + std::to_string(s.completed) +
            ",\"failed\":" + std::to_string(s.failed) +
            ",\"cancelled\":" + std::to_string(s.cancelled) + "}";
    body += ",\"draining\":";
    body += draining_ ? "true" : "false";
    body += "}";
    return body;
}

void
Server::beginShutdown(bool drain)
{
    if (draining_ && !drainMode_) {
        // Already aborting: a repeated abort request stops waiting on
        // connections that will not drain their output.
        if (!drain)
            for (auto &[id, conn] : conns_)
                closeFd(conn.fd);
        return;
    }
    draining_ = true;
    drainMode_ = drainMode_ && drain;
    // Fail further connects fast rather than queueing them in the
    // listen backlog.
    closeFd(tcpFd_);
    if (unixFd_ >= 0) {
        closeFd(unixFd_);
        ::unlink(opts_.socketPath.c_str());
    }
    if (drainMode_)
        queue_.close(); // running + queued jobs finish; no admissions
    else
        scheduler_.cancelAll("shutdown");
}

void
Server::handleLine(Conn &conn, const std::string &line)
{
    bool blank = true;
    for (char c : line)
        if (!std::isspace(static_cast<unsigned char>(c)))
            blank = false;
    if (blank)
        return;

    std::string error;
    std::optional<Request> req = parseRequest(line, error);
    if (!req) {
        deliver(conn.id,
                eventRejected(ErrorCode::BadRequest, error, ""));
        return;
    }

    switch (req->op) {
      case Request::Op::Submit: {
        if (draining_) {
            deliver(conn.id,
                    eventRejected(ErrorCode::ShuttingDown,
                                  "server is draining", req->tag));
            return;
        }
        JobDesc desc;
        desc.tenant = req->tenant;
        desc.tag = req->tag;
        desc.conn = conn.id;
        desc.params = req->params;
        desc.timeoutSec = req->timeoutSec;
        desc.enqueued = std::chrono::steady_clock::now();
        const AdmitResult res = queue_.admit(desc, req->weight);
        if (res.admitted) {
            deliver(conn.id,
                    eventAccepted(res.jobId, req->tag, res.depth));
        } else {
            std::string detail;
            if (res.error == ErrorCode::QueueFull)
                detail = "queue capacity " +
                         std::to_string(opts_.queue.capacity) +
                         " reached";
            else if (res.error == ErrorCode::QuotaExceeded)
                detail = "tenant '" + req->tenant + "' quota " +
                         std::to_string(opts_.queue.tenantQuota) +
                         " reached";
            else
                detail = "server is shutting down";
            deliver(conn.id,
                    eventRejected(res.error, detail, req->tag));
        }
        return;
      }
      case Request::Op::Cancel:
        if (scheduler_.cancel(req->cancelJob))
            deliver(conn.id, "{\"event\":\"cancel_ok\",\"job\":" +
                                 std::to_string(req->cancelJob) + "}");
        else
            deliver(conn.id,
                    eventRejected(ErrorCode::NotFound,
                                  "job " +
                                      std::to_string(req->cancelJob) +
                                      " is not queued or running",
                                  req->tag));
        return;
      case Request::Op::Status:
        deliver(conn.id, eventStatus(statusBody()));
        return;
      case Request::Op::Ping:
        deliver(conn.id, eventPong());
        return;
      case Request::Op::Shutdown:
        deliver(conn.id, eventShutdown(req->drain));
        beginShutdown(req->drain);
        return;
    }
}

void
Server::handleReadable(Conn &conn)
{
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
        if (n > 0) {
            conn.inbuf.append(buf, static_cast<std::size_t>(n));
            if (conn.inbuf.size() > opts_.maxLineBytes &&
                conn.inbuf.find('\n') == std::string::npos) {
                deliver(conn.id, eventRejected(ErrorCode::BadRequest,
                                               "request line too long",
                                               ""));
                conn.closing = true;
                break;
            }
            continue;
        }
        if (n == 0) {
            // Peer sent FIN. Complete request lines already buffered
            // must still be parsed below — data and FIN often arrive
            // in the same poll wake, and submit-and-hangup is legal —
            // so fall through to the line loop before winding down.
            conn.eof = true;
            break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        closeFd(conn.fd); // hard read error: state is unusable
        return;
    }

    std::size_t start = 0;
    for (;;) {
        const std::size_t nl = conn.inbuf.find('\n', start);
        if (nl == std::string::npos)
            break;
        std::string line = conn.inbuf.substr(start, nl - start);
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        start = nl + 1;
        handleLine(conn, line);
        if (conn.fd < 0 || conn.closing)
            break;
    }
    if (start)
        conn.inbuf.erase(0, start);

    if (conn.eof && conn.fd >= 0) {
        // Flush what we owe a half-closed peer, then close; a fully
        // closed peer fails the first write (EPIPE) and closes there.
        conn.closing = true;
        if (conn.outbuf.empty())
            closeFd(conn.fd);
    }
}

void
Server::flushWrites(Conn &conn)
{
    while (!conn.outbuf.empty()) {
        // MSG_NOSIGNAL: a peer that closed mid-stream must yield
        // EPIPE here, not a process-killing SIGPIPE.
        const ssize_t n = ::send(conn.fd, conn.outbuf.data(),
                                 conn.outbuf.size(), MSG_NOSIGNAL);
        if (n > 0) {
            conn.outbuf.erase(0, static_cast<std::size_t>(n));
            continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return;
        if (errno == EINTR)
            continue;
        closeFd(conn.fd); // broken pipe etc.
        return;
    }
    if (conn.closing)
        closeFd(conn.fd);
}

void
Server::run()
{
    setupListeners();
    scheduler_.start();

    std::vector<pollfd> pfds;
    std::vector<std::uint64_t> pfdConn; // conn id per pollfd (0: none)
    for (;;) {
        pfds.clear();
        pfdConn.clear();
        pfds.push_back({pipeRead_, POLLIN, 0});
        pfdConn.push_back(0);
        if (unixFd_ >= 0) {
            pfds.push_back({unixFd_, POLLIN, 0});
            pfdConn.push_back(0);
        }
        if (tcpFd_ >= 0) {
            pfds.push_back({tcpFd_, POLLIN, 0});
            pfdConn.push_back(0);
        }
        for (auto &[id, conn] : conns_) {
            // After EOF the fd stays readable forever; polling POLLIN
            // would busy-loop, so wait only for the output to drain.
            short ev = conn.eof ? 0 : POLLIN;
            if (!conn.outbuf.empty())
                ev |= POLLOUT;
            pfds.push_back({conn.fd, ev, 0});
            pfdConn.push_back(id);
        }

        const int timeout_ms = draining_ ? 50 : -1;
        const int rc = ::poll(pfds.data(),
                              static_cast<nfds_t>(pfds.size()),
                              timeout_ms);
        if (rc < 0 && errno != EINTR)
            sysFail("poll");

        // Self-pipe: wakeups ('e') and shutdown commands ('d'/'a').
        if (pfds[0].revents & POLLIN) {
            char cmd[64];
            ssize_t n;
            while ((n = ::read(pipeRead_, cmd, sizeof(cmd))) > 0)
                for (ssize_t i = 0; i < n; ++i)
                    if (cmd[i] == 'd' || cmd[i] == 'a')
                        beginShutdown(cmd[i] == 'd');
        }

        drainMailbox();

        for (std::size_t i = 1; i < pfds.size(); ++i) {
            if (!pfds[i].revents)
                continue;
            if (pfdConn[i] == 0) {
                int cfd;
                while ((cfd = acceptOn(pfds[i].fd)) >= 0) {
                    Conn conn;
                    conn.fd = cfd;
                    conn.id = nextConn_++;
                    conns_.emplace(conn.id, std::move(conn));
                }
                continue;
            }
            auto it = conns_.find(pfdConn[i]);
            if (it == conns_.end() || it->second.fd < 0)
                continue;
            if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR))
                handleReadable(it->second);
            if (it->second.fd >= 0 &&
                (pfds[i].revents & POLLOUT || !it->second.outbuf.empty()))
                flushWrites(it->second);
        }

        // Opportunistic flush of freshly queued events.
        for (auto &[id, conn] : conns_)
            if (conn.fd >= 0 && !conn.outbuf.empty())
                flushWrites(conn);
        for (auto it = conns_.begin(); it != conns_.end();)
            it = it->second.fd < 0 ? conns_.erase(it) : std::next(it);

        if (draining_) {
            const Scheduler::Snapshot snap = scheduler_.snapshot();
            bool mailbox_empty;
            {
                std::lock_guard lk(mailboxMu_);
                mailbox_empty = mailbox_.empty();
            }
            bool flushed = true;
            for (auto &[id, conn] : conns_)
                if (!conn.outbuf.empty())
                    flushed = false;
            if (queue_.depth() == 0 && snap.running == 0 &&
                mailbox_empty) {
                if (flushed)
                    break;
                // Only unread client sockets remain. Bound the flush
                // phase so a client that stopped reading cannot hang
                // shutdown forever.
                const auto now = std::chrono::steady_clock::now();
                if (flushDeadline_ ==
                    std::chrono::steady_clock::time_point{}) {
                    flushDeadline_ =
                        now + std::chrono::milliseconds(
                                  opts_.flushTimeoutMs);
                } else if (now >= flushDeadline_) {
                    for (auto &[id, conn] : conns_)
                        closeFd(conn.fd);
                    break;
                }
            } else {
                flushDeadline_ = {};
            }
        }
    }

    scheduler_.stop(drainMode_);
    drainMailbox(); // nothing should be left; don't lose it if so
    teardown();
}

} // namespace rr::svc
