#include "sim/trace.hh"

#include <cstdlib>
#include <sstream>

#include "sim/logging.hh"

namespace rr::sim
{

std::atomic<TraceSink *> TraceSink::sink_{nullptr};
thread_local std::uint32_t TraceSink::recordPid_ = TraceSink::kRecordPid;

TraceSink::TraceSink(std::ofstream out)
    : out_(std::move(out)), opened_(std::chrono::steady_clock::now())
{
    out_ << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    writeMetadata(kRecordPid, "record (ts = simulated cycles)");
    writeMetadata(kSweepPid, "sweep (ts = wall microseconds)");
}

std::uint64_t
TraceSink::wallMicros() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - opened_)
            .count());
}

void
TraceSink::open(const std::string &path)
{
    if (enabled())
        fatal("trace sink already open (--trace given twice?)");
    std::ofstream out(path);
    if (!out)
        fatal("cannot open trace file '%s'", path.c_str());
    sink_.store(new TraceSink(std::move(out)), std::memory_order_release);
}

void
TraceSink::openFromEnv()
{
    const char *path = std::getenv("RR_TRACE");
    if (path != nullptr && *path != '\0' && !enabled())
        open(path);
}

void
TraceSink::close()
{
    TraceSink *sink = sink_.exchange(nullptr, std::memory_order_acq_rel);
    if (sink == nullptr)
        return;
    sink->out_ << "\n]}\n";
    sink->out_.close();
    delete sink;
}

namespace
{

/** Append a JSON string literal (keys and values we emit are plain). */
void
appendJsonString(std::ostringstream &os, const char *s)
{
    os << '"';
    for (; *s != '\0'; ++s) {
        if (*s == '"' || *s == '\\')
            os << '\\';
        os << *s;
    }
    os << '"';
}

void
appendArgs(std::ostringstream &os, std::initializer_list<TraceArg> args)
{
    if (args.size() == 0)
        return;
    os << ",\"args\":{";
    bool first = true;
    for (const TraceArg &a : args) {
        if (!first)
            os << ',';
        first = false;
        appendJsonString(os, a.key);
        os << ':';
        if (a.str != nullptr)
            appendJsonString(os, a.str);
        else
            os << a.num;
    }
    os << '}';
}

} // namespace

void
TraceSink::writeEvent(std::uint32_t pid, std::uint32_t tid, const char *cat,
                      const char *name, char ph, std::uint64_t ts,
                      std::uint64_t dur, bool has_dur,
                      std::initializer_list<TraceArg> args)
{
    std::ostringstream os;
    os << "{\"name\":";
    appendJsonString(os, name);
    os << ",\"cat\":";
    appendJsonString(os, cat);
    os << ",\"ph\":\"" << ph << "\"";
    if (ph == 'i') // thread scope keeps Perfetto from drawing a global line
        os << ",\"s\":\"t\"";
    os << ",\"ts\":" << ts;
    if (has_dur)
        os << ",\"dur\":" << dur;
    os << ",\"pid\":" << (pid == kRecordPid ? recordPid_ : pid)
       << ",\"tid\":" << tid;
    appendArgs(os, args);
    os << '}';
    writeRaw(os.str());
}

void
TraceSink::writeMetadata(std::uint32_t pid, const char *process_name)
{
    std::ostringstream os;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":";
    appendJsonString(os, process_name);
    os << "}}";
    writeRaw(os.str());
}

void
TraceSink::writeRaw(const std::string &line)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (events_ > 0)
        out_ << ",\n";
    out_ << line;
    ++events_;
}

void
TraceSink::instant(std::uint32_t pid, std::uint32_t tid, const char *cat,
                   const char *name, std::uint64_t ts,
                   std::initializer_list<TraceArg> args)
{
    writeEvent(pid, tid, cat, name, 'i', ts, 0, false, args);
}

void
TraceSink::complete(std::uint32_t pid, std::uint32_t tid, const char *cat,
                    const std::string &name, std::uint64_t ts,
                    std::uint64_t dur, std::initializer_list<TraceArg> args)
{
    writeEvent(pid, tid, cat, name.c_str(), 'X', ts, dur, true, args);
}

void
TraceSink::counter(std::uint32_t pid, std::uint32_t tid, const char *name,
                   std::uint64_t ts, std::uint64_t value)
{
    writeEvent(pid, tid, "counter", name, 'C', ts, 0, false,
               {TraceArg{"value", value}});
}

TraceJobScope::TraceJobScope(std::size_t job, std::string label)
    : sink_(TraceSink::get()), job_(job), label_(std::move(label))
{
    if (sink_ == nullptr)
        return;
    const std::uint32_t pid = sink_->nextPid_.fetch_add(1);
    sink_->writeMetadata(
        pid, strfmt("record %s, job %zu (ts = simulated cycles)",
                    label_.c_str(), job_)
                 .c_str());
    TraceSink::recordPid_ = pid;
    start_ = sink_->wallMicros();
}

TraceJobScope::~TraceJobScope()
{
    if (sink_ == nullptr)
        return;
    TraceSink::recordPid_ = TraceSink::kRecordPid;
    sink_->complete(TraceSink::kSweepPid,
                    static_cast<std::uint32_t>(job_), "sweep", label_,
                    start_, sink_->wallMicros() - start_,
                    {{"job", static_cast<std::uint64_t>(job_)}});
}

} // namespace rr::sim
