/**
 * @file
 * The `rrsim serve` daemon: a poll()-driven single-threaded front end
 * over the JobQueue + Scheduler pair.
 *
 * Concurrency model: the poll thread owns every socket exclusively —
 * it accepts, reads, parses, admits, and is the only writer, so event
 * lines are never interleaved. The scheduler's executor threads never
 * touch a socket; they hand finished events to a mailbox and wake the
 * poll thread through a self-pipe. The same self-pipe carries
 * shutdown requests, which makes requestStop() async-signal-safe (a
 * single write()) — the SIGTERM/SIGINT handlers in rrsim call it
 * directly. A running daemon has one thread per executor besides the
 * poll thread, and none of them wakes while the queue is empty.
 *
 * Shutdown: a drain stop (SIGTERM, or `shutdown {"drain":true}`)
 * closes admissions, keeps streaming results until the queue and the
 * executors are empty, flushes every connection, then exits; an abort
 * stop (SIGINT, `"drain":false`) additionally cancels all queued jobs
 * and fires every running job's token first. Either way the listening
 * socket is unlinked on the way out.
 */

#ifndef RR_SVC_SERVER_HH
#define RR_SVC_SERVER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "svc/job_queue.hh"
#include "svc/scheduler.hh"

namespace rr::svc
{

class Server
{
  public:
    struct Options
    {
        /** Unix-domain listening socket path (always on). */
        std::string socketPath;
        /** Extra TCP listener on 127.0.0.1:tcpPort; 0 = none. */
        int tcpPort = 0;
        JobQueue::Options queue;
        Scheduler::Options sched;
        /** A request line longer than this closes the connection. */
        std::uint64_t maxLineBytes = 1 << 20;
        /**
         * Per-connection pending-event cap: a client that stops
         * reading is disconnected once this much output is buffered
         * (its jobs keep running; further events are dropped).
         */
        std::uint64_t maxOutbufBytes = 8 << 20;
        /**
         * During shutdown, how long to keep flushing connections
         * after all jobs have finished before force-closing the
         * stragglers. Bounds drain against clients that stopped
         * reading.
         */
        std::uint64_t flushTimeoutMs = 5000;
    };

    explicit Server(Options opts);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind, listen, serve. Blocks until a shutdown request (wire or
     * requestStop()) has fully drained/aborted. Throws
     * std::runtime_error on socket setup failures.
     */
    void run();

    /**
     * Initiate shutdown from any thread or from a signal handler
     * (async-signal-safe: one write() on the self-pipe).
     */
    void requestStop(bool drain);

  private:
    struct Conn
    {
        int fd = -1;
        std::uint64_t id = 0;
        std::string inbuf;
        std::string outbuf;
        bool closing = false; ///< flush outbuf, then close
        bool eof = false;     ///< peer sent FIN; stop polling POLLIN
    };

    void setupListeners();
    void teardown();
    int acceptOn(int listen_fd);
    void handleReadable(Conn &conn);
    void handleLine(Conn &conn, const std::string &line);
    void flushWrites(Conn &conn);
    void deliver(std::uint64_t conn_id, const std::string &event);
    void drainMailbox();
    void beginShutdown(bool drain);
    std::string statusBody();

    const Options opts_;
    JobQueue queue_;
    Scheduler scheduler_;

    int unixFd_ = -1;
    int tcpFd_ = -1;
    int pipeRead_ = -1;
    int pipeWrite_ = -1;

    std::map<std::uint64_t, Conn> conns_; ///< poll thread only
    std::uint64_t nextConn_ = 1;

    std::mutex mailboxMu_;
    std::vector<std::pair<std::uint64_t, std::string>> mailbox_;

    bool draining_ = false;  ///< shutdown initiated
    bool drainMode_ = true;  ///< finish queued jobs?
    /** Set when shutdown is only waiting on unflushed connections;
     *  expiry force-closes them so drain cannot hang forever. */
    std::chrono::steady_clock::time_point flushDeadline_{};
};

} // namespace rr::svc

#endif // RR_SVC_SERVER_HH
