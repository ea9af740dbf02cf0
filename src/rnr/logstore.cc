#include "rnr/logstore.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <thread>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "sim/faultinject.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace rr::rnr
{

namespace
{

using fmt::ChunkType;

std::string
formatError(const std::string &message, std::uint64_t offset,
            std::int64_t chunk_seq, int os_error)
{
    char loc[96];
    if (chunk_seq >= 0)
        std::snprintf(loc, sizeof loc,
                      " (file offset %" PRIu64 ", chunk %" PRId64 ")",
                      offset, chunk_seq);
    else
        std::snprintf(loc, sizeof loc, " (file offset %" PRIu64 ")",
                      offset);
    std::string text = message;
    if (os_error != 0)
        text += std::string(": ") + std::strerror(os_error);
    return text + loc;
}

/** Instant "fault"-category trace event for a log-store I/O incident. */
void
traceIo(const char *name, std::uint64_t file_offset)
{
    if (sim::TraceSink::enabled())
        sim::TraceSink::get()->instant(sim::TraceSink::kRecordPid, 0,
                                       "fault", name, file_offset,
                                       {{"offset", file_offset}});
}

/** FNV-1a 64-bit. */
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t
fnv1a(std::uint64_t hash, const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        hash ^= p[i];
        hash *= kFnvPrime;
    }
    return hash;
}

std::uint64_t
fnv1aU64(std::uint64_t hash, std::uint64_t v)
{
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    return fnv1a(hash, b, sizeof b);
}

/**
 * Bounds-checked bitstream cursor over one chunk payload: every decode
 * failure becomes a LogStoreError naming the chunk, never an assertion
 * or an out-of-range read.
 */
class Cursor
{
  public:
    Cursor(std::span<const std::uint8_t> bytes, std::uint64_t bits,
           std::uint64_t chunk_offset, std::int64_t chunk_seq)
        : reader_(bytes.data(), bits), bits_(bits),
          chunkOffset_(chunk_offset), chunkSeq_(chunk_seq)
    {
    }

    /** Bits left in the payload; bounds untrusted element counts. */
    std::uint64_t
    remainingBits() const
    {
        return bits_ - reader_.position();
    }

    std::uint64_t
    read(std::uint32_t width)
    {
        if (reader_.position() + width > bits_)
            fail("payload ends mid-field");
        return reader_.read(width);
    }

    std::uint64_t
    varint()
    {
        std::uint64_t v = 0;
        for (std::uint32_t g = 0; g < fmt::kMaxVarintGroups; ++g) {
            const std::uint64_t group = read(8);
            v |= (group & 0x7f) << (7 * g);
            if (!(group & 0x80))
                return v;
        }
        fail("varint longer than 10 groups");
    }

    bool atEnd() const { return reader_.position() >= bits_; }
    std::uint64_t position() const { return reader_.position(); }

    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw LogStoreError(
            "corrupt chunk payload: " + what + " at payload bit " +
                std::to_string(reader_.position()),
            chunkOffset_, chunkSeq_);
    }

  private:
    BitReader reader_;
    std::uint64_t bits_;
    std::uint64_t chunkOffset_;
    std::int64_t chunkSeq_;
};

void
encodeMeta(BitWriter &w, const RecordingMeta &meta)
{
    fmt::writeVarint(w, meta.kernel.size());
    for (char c : meta.kernel)
        w.write(static_cast<std::uint8_t>(c), 8);
    fmt::writeVarint(w, meta.cores);
    fmt::writeVarint(w, meta.scale);
    fmt::writeVarint(w, meta.intensity);
    fmt::writeVarint(w, meta.workloadSeed);
    fmt::writeVarint(w, meta.machineSeed);
    fmt::writeVarint(w, meta.mode == sim::RecorderMode::Opt ? 1 : 0);
    fmt::writeVarint(w, meta.intervalCap);
    fmt::writeVarint(w, meta.deps ? 1 : 0);
    // Trailing, only-when-set field: snoopy recordings stay bit- and
    // fingerprint-identical to pre-directory files.
    if (meta.coherence == sim::CoherenceKind::Directory)
        fmt::writeVarint(w, 1);
}

RecordingMeta
decodeMeta(Cursor &c)
{
    RecordingMeta meta;
    const std::uint64_t name_len = c.varint();
    if (name_len > 4096)
        c.fail("unreasonable kernel-name length");
    meta.kernel.reserve(name_len);
    for (std::uint64_t i = 0; i < name_len; ++i)
        meta.kernel.push_back(static_cast<char>(c.read(8)));
    meta.cores = static_cast<std::uint32_t>(c.varint());
    meta.scale = c.varint();
    meta.intensity = c.varint();
    meta.workloadSeed = c.varint();
    meta.machineSeed = c.varint();
    meta.mode = c.varint() ? sim::RecorderMode::Opt
                           : sim::RecorderMode::Base;
    meta.intervalCap = c.varint();
    meta.deps = c.varint() != 0;
    meta.coherence = !c.atEnd() && c.varint()
                         ? sim::CoherenceKind::Directory
                         : sim::CoherenceKind::Snoopy;
    return meta;
}

void
encodeSummary(BitWriter &w, const RecordingSummary &s)
{
    fmt::writeVarint(w, s.totalInstructions);
    fmt::writeVarint(w, s.cycles);
    fmt::writeVarint(w, s.memoryFingerprint);
    fmt::writeVarint(w, s.cores.size());
    for (const auto &core : s.cores) {
        fmt::writeVarint(w, core.intervals);
        fmt::writeVarint(w, core.retiredInstructions);
        fmt::writeVarint(w, core.retiredLoads);
        fmt::writeVarint(w, core.loadValueHash);
    }
}

RecordingSummary
decodeSummary(Cursor &c)
{
    RecordingSummary s;
    s.totalInstructions = c.varint();
    s.cycles = c.varint();
    s.memoryFingerprint = c.varint();
    const std::uint64_t n = c.varint();
    if (n > 1u << 20)
        c.fail("unreasonable summary core count");
    for (std::uint64_t i = 0; i < n; ++i) {
        CoreReplaySummary core;
        core.intervals = c.varint();
        core.retiredInstructions = c.varint();
        core.retiredLoads = c.varint();
        core.loadValueHash = c.varint();
        s.cores.push_back(core);
    }
    return s;
}

/** Decode one entry's tag and fields into a value-initialized @p entry. */
void
decodeEntry(Cursor &c, LogEntry &entry)
{
    const std::uint64_t tag = c.read(bits::kTypeTag);
    if (tag > static_cast<std::uint64_t>(EntryKind::DummyAtomic))
        c.fail("invalid entry tag " + std::to_string(tag));
    entry.kind = static_cast<EntryKind>(tag);
    switch (entry.kind) {
      case EntryKind::InorderBlock:
        entry.blockSize = c.varint();
        break;
      case EntryKind::ReorderedLoad:
        entry.loadValue = c.varint();
        break;
      case EntryKind::ReorderedStore:
        entry.addr = c.varint();
        entry.storeValue = c.varint();
        entry.offset = static_cast<std::uint32_t>(c.varint());
        break;
      case EntryKind::ReorderedAtomic:
        entry.addr = c.varint();
        entry.loadValue = c.varint();
        entry.storeValue = c.varint();
        entry.offset = static_cast<std::uint32_t>(c.varint());
        break;
      case EntryKind::PatchedStore:
        entry.addr = c.varint();
        entry.storeValue = c.varint();
        break;
      case EntryKind::DummyStore:
        break;
      case EntryKind::DummyAtomic:
        entry.loadValue = c.varint();
        break;
    }
}

/** An untrusted element count must be satisfiable by the bits left in
 *  the chunk, or reserve()/resize() on it is a memory bomb. */
std::uint64_t
checkedCount(Cursor &c, std::uint32_t min_bits_each, const char *what)
{
    const std::uint64_t count = c.varint();
    if (count > c.remainingBits() / min_bits_each)
        c.fail(std::string("unreasonable ") + what + " count " +
               std::to_string(count));
    return count;
}

/** Every entry carries at least its 3-bit tag. */
constexpr std::uint32_t kMinEntryBits = bits::kTypeTag;
/** A dependency edge is two varints: >= 16 bits. */
constexpr std::uint32_t kMinDepBits = 16;
/** An empty interval is 4 one-group varints: >= 32 bits. */
constexpr std::uint32_t kMinIntervalBits = 32;

/**
 * The intervals of one data chunk, decoded in order: the inverse of
 * LogWriter::flushCore and LogWriter::encodeInterval, and the reader's
 * only interval decoder. The delta codec restarts at every chunk, so
 * chunks decode independently of each other.
 */
class ChunkDecoder
{
  public:
    ChunkDecoder(std::span<const std::uint8_t> payload,
                 const fmt::ChunkHeader &header, std::uint64_t offset,
                 std::uint32_t cores)
        : c_(payload, header.payloadBits, offset,
             static_cast<std::int64_t>(header.seq))
    {
        if (header.core >= cores)
            throw LogStoreError("data chunk names core " +
                                    std::to_string(header.core) +
                                    " but the file has " +
                                    std::to_string(cores) + " cores",
                                offset,
                                static_cast<std::int64_t>(header.seq));
        count_ = checkedCount(c_, kMinIntervalBits, "interval");
    }

    std::uint64_t count() const { return count_; }

    /** Decode the next interval into @p iv, overwriting every persisted
     *  field (cycle is not persisted and is left alone). */
    void
    next(IntervalRecord &iv)
    {
        const std::uint64_t entry_count =
            checkedCount(c_, kMinEntryBits, "entry");
        iv.entries.clear();
        iv.entries.reserve(entry_count);
        for (std::uint64_t e = 0; e < entry_count; ++e)
            decodeEntry(c_, iv.entries.emplace_back());
        // The frame: absolute for the first interval of the chunk,
        // zigzag deltas after.
        if (first_) {
            iv.cisn = c_.varint();
            iv.timestamp = c_.varint();
            first_ = false;
        } else {
            iv.cisn = static_cast<sim::Isn>(
                static_cast<std::int64_t>(prevCisn_) +
                fmt::unzigzag(c_.varint()));
            iv.timestamp = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(prevTimestamp_) +
                fmt::unzigzag(c_.varint()));
        }
        prevCisn_ = iv.cisn;
        prevTimestamp_ = iv.timestamp;
        const std::uint64_t dep_count =
            checkedCount(c_, kMinDepBits, "dependency");
        if (dep_count > 1u << 20)
            c_.fail("unreasonable dependency count");
        iv.predecessors.clear();
        iv.predecessors.reserve(dep_count);
        for (std::uint64_t d = 0; d < dep_count; ++d) {
            IntervalDep &dep = iv.predecessors.emplace_back();
            dep.core = static_cast<sim::CoreId>(c_.varint());
            dep.isn = c_.varint();
        }
    }

    /** After the last interval: the payload must hold nothing more. */
    void
    finish() const
    {
        if (!c_.atEnd())
            c_.fail("trailing bits after the last interval");
    }

  private:
    Cursor c_;
    std::uint64_t count_ = 0;
    bool first_ = true;
    sim::Isn prevCisn_ = 0;
    std::uint64_t prevTimestamp_ = 0;
};

/** Decode a whole data chunk into fresh records. */
std::vector<IntervalRecord>
decodeDataChunk(std::span<const std::uint8_t> payload,
                const fmt::ChunkHeader &header, std::uint64_t offset,
                std::uint32_t cores)
{
    ChunkDecoder d(payload, header, offset, cores);
    std::vector<IntervalRecord> intervals(d.count());
    for (IntervalRecord &iv : intervals)
        d.next(iv);
    d.finish();
    return intervals;
}

} // namespace

LogStoreError::LogStoreError(const std::string &message,
                             std::uint64_t file_offset,
                             std::int64_t chunk_seq, LogErrorKind kind,
                             int os_error)
    : std::runtime_error(
          formatError(message, file_offset, chunk_seq, os_error)),
      fileOffset_(file_offset), chunkSeq_(chunk_seq), kind_(kind),
      osError_(os_error)
{
}

std::uint64_t
RecordingMeta::fingerprint() const
{
    std::uint64_t h = kFnvOffset;
    h = fnv1aU64(h, fmt::kFormatVersion);
    h = fnv1a(h, kernel.data(), kernel.size());
    h = fnv1aU64(h, cores);
    h = fnv1aU64(h, scale);
    h = fnv1aU64(h, intensity);
    h = fnv1aU64(h, workloadSeed);
    h = fnv1aU64(h, machineSeed);
    h = fnv1aU64(h, mode == sim::RecorderMode::Opt ? 1 : 0);
    h = fnv1aU64(h, intervalCap);
    h = fnv1aU64(h, deps ? 1 : 0);
    // Chained only when set, so snoopy fingerprints match pre-directory
    // files; a directory-tagged log can never pass for a snoopy one.
    if (coherence == sim::CoherenceKind::Directory)
        h = fnv1aU64(h, 2);
    return h;
}

// --- LogWriter ---

namespace
{

/** Serialize the 24-byte file header. */
std::vector<std::uint8_t>
headerBytes(const RecordingMeta &meta, std::uint16_t flags)
{
    std::vector<std::uint8_t> h;
    h.reserve(fmt::kFileHeaderBytes);
    for (char c : fmt::kMagic)
        h.push_back(static_cast<std::uint8_t>(c));
    fmt::putU16(h, fmt::kFormatVersion);
    fmt::putU16(h, flags);
    fmt::putU64(h, meta.fingerprint());
    fmt::putU32(h, meta.cores);
    fmt::putU32(h, fmt::crc32(h.data(), h.size()));
    return h;
}

/** Write/sync attempts before a transient I/O failure is fatal. */
constexpr std::uint32_t kMaxIoAttempts = 5;
/** First retry backoff in microseconds; doubles per attempt. */
constexpr std::uint32_t kRetryBackoffUs = 50;

/** The header flags the meta implies: its coherence tag. */
std::uint16_t
metaFlags(const RecordingMeta &meta)
{
    return meta.coherence == sim::CoherenceKind::Directory
               ? fmt::kFlagDirectory
               : 0;
}

/** The installed fault plan's log budget (`budget=N`); 0 = none. */
std::uint64_t
planBudget()
{
    return sim::FaultInjector::enabled()
               ? sim::FaultInjector::get()->plan().logBudgetBytes
               : 0;
}

} // namespace

LogWriter::LogWriter(std::ostream &out, const RecordingMeta &meta,
                     const WriterOptions &opts)
    : stream_(&out), meta_(meta), opts_(opts), budgetBytes_(planBudget()),
      headerFlags_(metaFlags(meta)), streams_(meta.cores),
      stats_("logstore")
{
    writeFileHeader();
    writeMetaChunk();
}

LogWriter::LogWriter(const std::string &path, const RecordingMeta &meta,
                     const WriterOptions &opts)
    : path_(path), tmpPath_(path + ".tmp"), meta_(meta),
      opts_(opts), budgetBytes_(planBudget()),
      headerFlags_(metaFlags(meta)),
      streams_(meta.cores), stats_("logstore")
{
    file_ = std::fopen(tmpPath_.c_str(), "wb");
    if (!file_)
        throw LogStoreError("cannot open " + tmpPath_ + " for writing",
                            0, -1, LogErrorKind::Io, errno);
    writeFileHeader();
    writeMetaChunk();
}

LogWriter::~LogWriter()
{
    // An unfinished path-mode writer leaves its .tmp staging file on
    // disk: that is the crash picture `rrlog repair` salvages from.
    // Only finish()/finishPartial() rename onto the final path.
    if (file_)
        std::fclose(file_);
}

void
LogWriter::writeRaw(const void *data, std::size_t n)
{
    if (dead_)
        throw LogStoreError("log file already torn by an injected crash",
                            bytesWritten_, -1, LogErrorKind::Crash);
    const auto *p = static_cast<const std::uint8_t *>(data);
    if (stream_) {
        // Stream mode: the simple in-memory path, no fault machinery.
        stream_->write(reinterpret_cast<const char *>(p),
                       static_cast<std::streamsize>(n));
        if (!*stream_)
            throw LogStoreError("write failed", bytesWritten_, -1,
                                LogErrorKind::Io, errno);
        bytesWritten_ += n;
        return;
    }
    std::size_t done = 0;
    std::uint32_t attempts = 0;
    std::uint32_t backoff_us = kRetryBackoffUs;
    while (done < n) {
        std::size_t want = n - done;
        int err = 0;
        bool crash = false;
        if (sim::FaultInjector::enabled()) {
            const auto outcome =
                sim::FaultInjector::get()->onWrite(bytesWritten_, want);
            using Kind = sim::FaultInjector::IoOutcome::Kind;
            switch (outcome.kind) {
              case Kind::None:
                break;
              case Kind::ShortWrite:
                want = outcome.maxBytes;
                stats_.counter("io_short_writes")++;
                traceIo("io-short-write", bytesWritten_);
                break;
              case Kind::Error:
                err = outcome.err;
                break;
              case Kind::Crash:
                crash = true;
                want = outcome.maxBytes;
                break;
            }
        }
        std::size_t wrote = 0;
        if (err == 0 && want != 0) {
            wrote = std::fwrite(p + done, 1, want, file_);
            if (wrote < want)
                err = errno != 0 ? errno : EIO;
        }
        done += wrote;
        bytesWritten_ += wrote;
        if (crash) {
            // Simulated power-cut: whatever fwrite committed may reach
            // the disk, nothing else ever will. The file object stays
            // open (the destructor keeps the torn .tmp) but every
            // further write on this writer is refused.
            dead_ = true;
            std::fflush(file_);
            stats_.counter("injected_crashes")++;
            traceIo("io-crash", bytesWritten_);
            throw LogStoreError(
                "injected crash tore the log after " +
                    std::to_string(bytesWritten_) +
                    " bytes; torn file left at " + tmpPath_,
                bytesWritten_, -1, LogErrorKind::Crash);
        }
        if (err != 0) {
            stats_.counter("io_retries")++;
            traceIo("io-retry", bytesWritten_);
            if (++attempts >= kMaxIoAttempts)
                throw LogStoreError("write failed on " + tmpPath_ +
                                        " after " +
                                        std::to_string(attempts) +
                                        " attempts",
                                    bytesWritten_, -1, LogErrorKind::Io,
                                    err);
            std::clearerr(file_);
            std::this_thread::sleep_for(
                std::chrono::microseconds(backoff_us));
            backoff_us *= 2;
        }
        // An injected short write commits a prefix without error; the
        // loop simply resumes at the first unwritten byte.
    }
}

void
LogWriter::syncFile(const char *what)
{
    if (stream_) {
        stream_->flush();
        if (!*stream_)
            throw LogStoreError(std::string(what) + ": flush failed",
                                bytesWritten_, -1, LogErrorKind::Io,
                                errno);
        return;
    }
    std::uint32_t attempts = 0;
    std::uint32_t backoff_us = kRetryBackoffUs;
    for (;;) {
        int err = 0;
        if (sim::FaultInjector::enabled())
            err = sim::FaultInjector::get()->onSync();
        if (err == 0) {
            if (std::fflush(file_) != 0)
                err = errno != 0 ? errno : EIO;
            else if (fsync(fileno(file_)) != 0)
                err = errno != 0 ? errno : EIO;
        }
        if (err == 0)
            return;
        stats_.counter("sync_retries")++;
        traceIo("sync-retry", bytesWritten_);
        if (++attempts >= kMaxIoAttempts)
            throw LogStoreError(std::string(what) + " failed on " +
                                    tmpPath_ + " after " +
                                    std::to_string(attempts) +
                                    " attempts",
                                bytesWritten_, -1, LogErrorKind::Io,
                                err);
        std::clearerr(file_);
        std::this_thread::sleep_for(
            std::chrono::microseconds(backoff_us));
        backoff_us *= 2;
    }
}

void
LogWriter::writeFileHeader()
{
    const auto h = headerBytes(meta_, headerFlags_);
    writeRaw(h.data(), h.size());
}

void
LogWriter::rewriteHeader()
{
    const auto h = headerBytes(meta_, headerFlags_);
    if (stream_) {
        stream_->flush();
        stream_->seekp(0);
        if (!*stream_) {
            // Non-seekable sink (e.g. a pipe): the body is still
            // complete, only the partial flag is lost.
            stream_->clear();
            sim::warn("log stream is not seekable; "
                      "partial flag not recorded in the header");
            return;
        }
        stream_->write(reinterpret_cast<const char *>(h.data()),
                       static_cast<std::streamsize>(h.size()));
        stream_->seekp(0, std::ios::end);
        return;
    }
    if (std::fflush(file_) != 0 ||
        std::fseek(file_, 0, SEEK_SET) != 0)
        throw LogStoreError("cannot seek to rewrite the header on " +
                                tmpPath_,
                            0, -1, LogErrorKind::Io, errno);
    if (std::fwrite(h.data(), 1, h.size(), file_) != h.size())
        throw LogStoreError("header rewrite failed on " + tmpPath_, 0,
                            -1, LogErrorKind::Io, errno);
    if (std::fseek(file_, 0, SEEK_END) != 0)
        throw LogStoreError("cannot seek back after header rewrite on " +
                                tmpPath_,
                            0, -1, LogErrorKind::Io, errno);
}

void
LogWriter::writeMetaChunk()
{
    BitWriter w;
    encodeMeta(w, meta_);
    writeChunk(ChunkType::Meta, 0, w.bytes(), w.bitCount());
}

void
LogWriter::writeChunk(ChunkType type, std::uint32_t core,
                      const std::vector<std::uint8_t> &payload,
                      std::uint64_t payload_bits)
{
    fmt::ChunkHeader h;
    h.type = type;
    h.core = core;
    h.seq = nextChunkSeq_++;
    h.payloadBits = payload_bits;
    h.payloadCrc = fmt::crc32(payload.data(), payload.size());
    const auto encoded = h.encode();
    writeRaw(encoded.data(), encoded.size());
    writeRaw(payload.data(), payload.size());
    stats_.counter("chunks_written")++;
    stats_.counter("bytes_written") += encoded.size() + payload.size();
    // Bits lost to byte-aligning the payload: recoverable by a
    // bit-contiguous (compressed) framing, hence "compression-eligible".
    stats_.counter("padding_bits") += payload.size() * 8 - payload_bits;
    stats_.counter("payload_bits") += payload_bits;
}

void
LogWriter::encodeInterval(CoreStream &cs, const IntervalRecord &iv)
{
    BitWriter &w = cs.bits;
    fmt::writeVarint(w, iv.entries.size());
    for (const auto &e : iv.entries) {
        w.write(static_cast<std::uint64_t>(e.kind), bits::kTypeTag);
        switch (e.kind) {
          case EntryKind::InorderBlock:
            fmt::writeVarint(w, e.blockSize);
            break;
          case EntryKind::ReorderedLoad:
            fmt::writeVarint(w, e.loadValue);
            break;
          case EntryKind::ReorderedStore:
            fmt::writeVarint(w, e.addr);
            fmt::writeVarint(w, e.storeValue);
            fmt::writeVarint(w, e.offset);
            break;
          case EntryKind::ReorderedAtomic:
            fmt::writeVarint(w, e.addr);
            fmt::writeVarint(w, e.loadValue);
            fmt::writeVarint(w, e.storeValue);
            fmt::writeVarint(w, e.offset);
            break;
          case EntryKind::PatchedStore:
            fmt::writeVarint(w, e.addr);
            fmt::writeVarint(w, e.storeValue);
            break;
          case EntryKind::DummyStore:
            break;
          case EntryKind::DummyAtomic:
            fmt::writeVarint(w, e.loadValue);
            break;
        }
    }
    if (cs.first) {
        fmt::writeVarint(w, iv.cisn);
        fmt::writeVarint(w, iv.timestamp);
        cs.first = false;
    } else {
        fmt::writeVarint(
            w, fmt::zigzag(static_cast<std::int64_t>(iv.cisn) -
                           static_cast<std::int64_t>(cs.prevCisn)));
        fmt::writeVarint(
            w, fmt::zigzag(static_cast<std::int64_t>(iv.timestamp) -
                           static_cast<std::int64_t>(cs.prevTimestamp)));
    }
    cs.prevCisn = iv.cisn;
    cs.prevTimestamp = iv.timestamp;
    fmt::writeVarint(w, iv.predecessors.size());
    for (const auto &d : iv.predecessors) {
        fmt::writeVarint(w, d.core);
        fmt::writeVarint(w, d.isn);
    }
}

void
LogWriter::append(sim::CoreId core, const IntervalRecord &interval)
{
    RR_ASSERT(!finished_, "append after finish");
    RR_ASSERT(core < streams_.size(), "core %u out of range", core);
    if (budgetExceeded_) {
        stats_.counter("intervals_dropped_budget")++;
        return;
    }
    CoreStream &cs = streams_[core];
    encodeInterval(cs, interval);
    ++cs.intervals;
    ++intervalsWritten_;
    stats_.counter("intervals_written")++;
    if (budgetBytes_ != 0) {
        // Projected final size if we stopped now: what is on disk, every
        // pending chunk with its framing, and Summary + End headroom.
        std::uint64_t projected =
            bytesWritten_ + 2 * fmt::kChunkHeaderBytes + 256;
        for (const auto &s : streams_)
            if (s.intervals != 0)
                projected +=
                    fmt::kChunkHeaderBytes + s.bits.bytes().size();
        if (projected > budgetBytes_) {
            // Over budget: land every pending chunk once and drop all
            // further intervals. Flushing rather than discarding keeps
            // the on-disk set exactly "every interval closed so far" —
            // a cross-core-consistent close-order prefix that replays
            // without a consistent-cut trim — at the cost of a bounded
            // overshoot (the pending chunks the projection counted).
            for (sim::CoreId c = 0; c < streams_.size(); ++c)
                flushCore(c);
            budgetExceeded_ = true;
            markPartial();
            stats_.counter("budget_exceeded")++;
            traceIo("log-budget-exceeded", bytesWritten_);
            if (sim::FaultInjector::enabled())
                sim::FaultInjector::get()->noteDegradation(
                    "log_budget_exceeded");
            sim::warn("log budget of %llu bytes reached at %llu bytes "
                      "written: dropping further intervals, file will "
                      "be flagged partial",
                      static_cast<unsigned long long>(budgetBytes_),
                      static_cast<unsigned long long>(bytesWritten_));
            return;
        }
    }
    if (cs.bits.bytes().size() >= opts_.chunkTargetBytes)
        flushCore(core);
}

void
LogWriter::flushCore(sim::CoreId core)
{
    CoreStream &cs = streams_[core];
    if (cs.intervals == 0)
        return;
    // Data payload: varint interval count, then the intervals.
    BitWriter framed;
    fmt::writeVarint(framed, cs.intervals);
    const auto &body = cs.bits.bytes();
    // Splice the already-encoded interval stream after the count. The
    // count is byte-aligned (whole varint groups), so this is a byte
    // append plus a final bit-count fixup.
    std::vector<std::uint8_t> payload = framed.bytes();
    payload.insert(payload.end(), body.begin(), body.end());
    const std::uint64_t payload_bits =
        framed.bitCount() + cs.bits.bitCount();
    // The interval stream's own padding (none: varints and the 3-bit
    // tags pack back to back, so bitCount is exact).
    writeChunk(ChunkType::Data, core, payload, payload_bits);
    stats_.counter("flushes")++;
    cs = CoreStream{};
}

void
LogWriter::finish(const RecordingSummary &summary)
{
    finishCommon(&summary);
}

void
LogWriter::finishPartial(const RecordingSummary *summary)
{
    markPartial();
    finishCommon(summary);
}

void
LogWriter::finishCommon(const RecordingSummary *summary)
{
    RR_ASSERT(!finished_, "finish twice");
    for (sim::CoreId c = 0; c < streams_.size(); ++c)
        flushCore(c);
    if (summary) {
        BitWriter w;
        encodeSummary(w, *summary);
        writeChunk(ChunkType::Summary, 0, w.bytes(), w.bitCount());
    }
    writeChunk(ChunkType::End, 0, {}, 0);
    // The flags written at construction came from the meta; a later
    // markPartial() (budget, finishPartial) means the on-disk header is
    // stale and must be patched before the file is sealed.
    if (headerFlags_ != metaFlags(meta_))
        rewriteHeader();
    syncFile("finish flush");
    finalizeFile();
    finished_ = true;
}

void
LogWriter::finalizeFile()
{
    if (!file_)
        return;
    // Close, then atomically rename the fsync'd staging file onto the
    // final path: a reader can never observe a half-written file under
    // the final name, no matter when the process dies.
    std::FILE *f = file_;
    file_ = nullptr;
    if (std::fclose(f) != 0)
        throw LogStoreError("fclose failed on " + tmpPath_,
                            bytesWritten_, -1, LogErrorKind::Io, errno);
    if (std::rename(tmpPath_.c_str(), path_.c_str()) != 0)
        throw LogStoreError("cannot rename " + tmpPath_ + " to " + path_,
                            bytesWritten_, -1, LogErrorKind::Io, errno);
}

// --- LogReader ---

struct LogReader::Chunk
{
    fmt::ChunkHeader header;
    std::uint64_t offset = 0; ///< file offset of the chunk header
    /** The payload bytes, read into the chunk's own buffer. */
    std::vector<std::uint8_t> payload;

    std::int64_t seq() const { return static_cast<std::int64_t>(header.seq); }

    /** File offset just past the payload. */
    std::uint64_t
    end() const
    {
        return offset + fmt::kChunkHeaderBytes + header.payloadBytes();
    }

    bool
    crcOk() const
    {
        return fmt::crc32(payload.data(), payload.size()) ==
               header.payloadCrc;
    }

    void
    checkCrc() const
    {
        if (!crcOk())
            throw LogStoreError("chunk payload CRC mismatch", offset, seq());
    }
};

/** What the chunk walk does with a problem it finds. */
enum class LogReader::OnProblem
{
    Throw,   ///< throw it
    Note,    ///< note it and go on (verify)
    Salvage, ///< note it and end the walk (recoverPrefix)
};

/** Where and why the chunk walk stopped. */
struct LogReader::WalkEnd
{
    enum Reason
    {
        End,     ///< at the End marker
        Eof,     ///< the file ends without one
        Broken,  ///< a noted problem ended the walk
        Stopped, ///< the visitor stopped it
    } reason;
    std::uint64_t offset; ///< just past the last chunk walked
};

LogReader::Fd::~Fd()
{
    if (fd >= 0)
        ::close(fd);
}

/**
 * Read exactly @p n bytes at @p pos, retrying short reads and EINTR. A
 * read that fails, or finds the file ending before the size fstat
 * reported at open (it shrank while open), throws kind Io naming
 * @p what and the chunk at @p offset / @p chunk_seq.
 */
void
LogReader::readAt(std::uint64_t pos, std::uint8_t *dest, std::size_t n,
                  const char *what, std::uint64_t offset,
                  std::int64_t chunk_seq) const
{
    std::size_t done = 0;
    while (done < n) {
        const ssize_t got = ::pread(fd_.fd, dest + done, n - done,
                                    static_cast<off_t>(pos + done));
        if (got > 0) {
            done += static_cast<std::size_t>(got);
            continue;
        }
        if (got < 0 && errno == EINTR)
            continue;
        if (got < 0)
            throw LogStoreError(std::string("read failed on ") + what,
                                offset, chunk_seq, LogErrorKind::Io, errno);
        throw LogStoreError(std::string("read failed on ") + what +
                                ": the file shrank while open",
                            offset, chunk_seq, LogErrorKind::Io);
    }
}

LogReader::LogReader(const std::string &path, IngestMode)
    : path_(path)
{
    // O_NONBLOCK: opening a FIFO without a writer must not block; the
    // fstat below then refuses it like any other non-regular file.
    fd_.fd = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK);
    if (fd_.fd < 0)
        throw LogStoreError("cannot open " + path_ + " for reading", 0,
                            -1, LogErrorKind::Io, errno);
    struct stat st = {};
    if (::fstat(fd_.fd, &st) != 0)
        throw LogStoreError("cannot stat " + path_, 0, -1,
                            LogErrorKind::Io, errno);
    if (!S_ISREG(st.st_mode))
        throw LogStoreError("cannot read " + path_ +
                                ": not a regular file",
                            0, -1, LogErrorKind::Io);
    fileBytes_ = static_cast<std::uint64_t>(st.st_size);

    std::uint8_t h[fmt::kFileHeaderBytes];
    if (fileBytes_ < fmt::kFileHeaderBytes)
        throw LogStoreError("file shorter than the 24-byte header", 0);
    readAt(0, h, sizeof h, "file header", 0, -1);
    if (std::memcmp(h, fmt::kMagic.data(), 4) != 0)
        throw LogStoreError("bad magic: not an .rrlog file", 0);
    if (fmt::crc32(h, fmt::kFileHeaderBytes - 4) !=
        fmt::getU32(h + fmt::kFileHeaderBytes - 4))
        throw LogStoreError("file header CRC mismatch", 0);
    version_ = fmt::getU16(h + 4);
    flags_ = fmt::getU16(h + fmt::kFlagsOffset);
    if (version_ > fmt::kFormatVersion)
        throw LogStoreError(
            "format version " + std::to_string(version_) +
                " is newer than this reader (supports up to " +
                std::to_string(fmt::kFormatVersion) + ")",
            4);
    fingerprint_ = fmt::getU64(h + 8);
    coreCount_ = fmt::getU32(h + 16);
    // Every per-core table the entry points build is sized from this.
    if (coreCount_ == 0 || coreCount_ > sim::kMaxCores)
        throw LogStoreError("header names " + std::to_string(coreCount_) +
                                " cores; a recording has 1 to " +
                                std::to_string(sim::kMaxCores),
                            16);

    Chunk meta_chunk;
    if (!readChunk(fmt::kFileHeaderBytes, meta_chunk))
        throw LogStoreError("file ends before the meta chunk",
                            fmt::kFileHeaderBytes);
    meta_chunk.checkCrc();
    if (meta_chunk.header.type != ChunkType::Meta)
        throw LogStoreError("first chunk is not the meta chunk",
                            meta_chunk.offset, 0);
    Cursor c(meta_chunk.payload, meta_chunk.header.payloadBits,
             meta_chunk.offset, 0);
    meta_ = decodeMeta(c);
    const bool meta_dir = meta_.coherence == sim::CoherenceKind::Directory;
    if (meta_dir != ((flags_ & fmt::kFlagDirectory) != 0))
        throw LogStoreError(
            std::string("coherence tag mismatch: header flags say ") +
                (flags_ & fmt::kFlagDirectory ? "directory" : "snoopy") +
                ", meta chunk says " + sim::toString(meta_.coherence),
            meta_chunk.offset, 0);
    if (meta_.fingerprint() != fingerprint_)
        throw LogStoreError(
            "configuration fingerprint mismatch: header says " +
                std::to_string(fingerprint_) + ", meta chunk hashes to " +
                std::to_string(meta_.fingerprint()),
            meta_chunk.offset, 0);
    if (meta_.cores != coreCount_)
        throw LogStoreError("header core count disagrees with meta chunk",
                            meta_chunk.offset, 0);
    firstDataOffset_ = meta_chunk.end();
}

/**
 * Read the header and payload of the chunk at @p offset, checking its
 * framing (not its payload CRC).
 * @return false at a clean end-of-file boundary.
 */
bool
LogReader::readChunk(std::uint64_t offset, Chunk &out) const
{
    if (offset == fileBytes_)
        return false; // clean boundary; the walk checks for End
    if (offset + fmt::kChunkHeaderBytes > fileBytes_)
        throw LogStoreError("truncated chunk header", offset);
    std::uint8_t h[fmt::kChunkHeaderBytes];
    readAt(offset, h, sizeof h, "chunk header", offset, -1);
    if (!fmt::ChunkHeader::decode(h, out.header))
        throw LogStoreError("chunk header CRC mismatch "
                            "(corrupt or misaligned framing)",
                            offset);
    out.offset = offset;
    const std::uint64_t payload_bytes = out.header.payloadBytes();
    if (out.end() > fileBytes_)
        throw LogStoreError(
            "truncated chunk: header promises " +
                std::to_string(payload_bytes) +
                " payload bytes but the file ends first",
            offset, out.seq());
    out.payload.resize(payload_bytes);
    readAt(offset + fmt::kChunkHeaderBytes, out.payload.data(),
           payload_bytes, "chunk payload", offset, out.seq());
    return true;
}

/**
 * The chunk walk, the only code that reads chunk headers: from the
 * first chunk after Meta, read each chunk, check its sequence number
 * and hand it to @p visit (which returns false to stop), up to the End
 * marker; then check that no bytes trail it. Problems are handled per
 * @p policy; noted ones land in @p notes. A failed read always throws.
 */
template <typename Visit>
LogReader::WalkEnd
LogReader::walk(OnProblem policy, std::vector<VerifyIssue> *notes,
                Visit &&visit)
{
    // Handle one problem; returns whether the walk may go on past it.
    // Verify notes the bare message (the issue carries the location);
    // a salvage notes why it stopped.
    const auto problem = [&](const LogStoreError &e,
                             const std::string &message) {
        switch (policy) {
          case OnProblem::Throw:
            throw e;
          case OnProblem::Note:
            notes->push_back({e.fileOffset(), e.chunkSeq(), message});
            return true;
          case OnProblem::Salvage:
            notes->push_back({e.fileOffset(), e.chunkSeq(),
                              std::string("salvage stopped: ") + e.what()});
            return false;
        }
        return false;
    };

    std::uint64_t offset = firstDataOffset_;
    std::uint64_t expected_seq = 1; // the meta chunk was seq 0
    Chunk chunk;
    for (;;) {
        try {
            if (!readChunk(offset, chunk))
                return {WalkEnd::Eof, offset};
        } catch (const LogStoreError &e) {
            // A failed read says nothing about the file's bytes: no
            // policy notes it as damage or salvages past it.
            if (e.kind() == LogErrorKind::Io)
                throw;
            // Without a trusted header there is no next chunk boundary.
            problem(e, e.what());
            return {WalkEnd::Broken, offset};
        }
        if (chunk.header.seq != expected_seq) {
            const std::string message =
                "chunk sequence break: expected " +
                std::to_string(expected_seq) + ", found " +
                std::to_string(chunk.header.seq);
            if (!problem(LogStoreError(message, chunk.offset, chunk.seq()),
                         message))
                return {WalkEnd::Broken, offset};
        }
        expected_seq = chunk.header.seq + 1;
        offset = chunk.end();
        const bool end = chunk.header.type == ChunkType::End;
        if (!visit(chunk)) // which may move the chunk away
            return {WalkEnd::Stopped, offset};
        if (end)
            break;
    }
    // A salvage is bounded by what precedes End; nothing after it is.
    if (offset != fileBytes_ && policy != OnProblem::Salvage) {
        const std::string message =
            "trailing bytes after the end-of-log marker";
        problem(LogStoreError(message, offset), message);
    }
    return {WalkEnd::End, offset};
}

/** Throw unless the walk reached the End marker. */
void
LogReader::requireEnd(const WalkEnd &end) const
{
    if (end.reason != WalkEnd::End)
        throw LogStoreError(
            "no end-of-log marker: the recording was truncated "
            "(LogWriter::finish never ran or the file was cut short)",
            end.offset);
}

/** What the throwing entry points check on a chunk besides the
 *  data-chunk decode: its payload CRC, a decodable Summary (kept for
 *  summary()) and no second Meta chunk. */
void
LogReader::checkChunk(const Chunk &chunk)
{
    chunk.checkCrc();
    switch (chunk.header.type) {
      case ChunkType::Summary: {
        Cursor c(chunk.payload, chunk.header.payloadBits, chunk.offset,
                 chunk.seq());
        summary_ = decodeSummary(c);
        haveSummary_ = true;
        break;
      }
      case ChunkType::Meta:
        throw LogStoreError("duplicate meta chunk", chunk.offset,
                            chunk.seq());
      case ChunkType::Data:
      case ChunkType::End:
        break;
    }
}

bool
LogReader::walkIntervals(
    const std::function<bool(sim::CoreId, const IntervalRecord &,
                             const ChunkView &)> &fn)
{
    IntervalRecord iv; // reused: the decoder overwrites it each time
    const WalkEnd end =
        walk(OnProblem::Throw, nullptr, [&](const Chunk &chunk) {
            checkChunk(chunk);
            if (chunk.header.type != ChunkType::Data)
                return true;
            const ChunkView view{chunk.header.seq, chunk.offset,
                                 chunk.header.payloadBits};
            ChunkDecoder d(chunk.payload, chunk.header, chunk.offset,
                           coreCount_);
            for (std::uint64_t k = 0; k < d.count(); ++k) {
                d.next(iv);
                if (!fn(chunk.header.core, iv, view))
                    return false;
            }
            d.finish();
            return true;
        });
    if (end.reason == WalkEnd::Stopped)
        return false; // caller bailed; nothing further is read
    requireEnd(end);
    return true;
}

std::vector<CoreLog>
LogReader::readAll()
{
    // File order per core is interval order: the writer flushes each
    // core's chunks in close order.
    std::vector<CoreLog> logs(coreCount_);
    requireEnd(walk(OnProblem::Throw, nullptr, [&](const Chunk &chunk) {
        checkChunk(chunk);
        if (chunk.header.type != ChunkType::Data)
            return true;
        ChunkDecoder d(chunk.payload, chunk.header, chunk.offset,
                       coreCount_);
        auto &intervals = logs[chunk.header.core].intervals;
        // Room for the whole chunk, still growing geometrically: a core
        // with one chunk is sized once.
        if (intervals.capacity() - intervals.size() < d.count())
            intervals.reserve(std::max<std::size_t>(
                intervals.size() + d.count(), 2 * intervals.capacity()));
        for (std::uint64_t k = 0; k < d.count(); ++k)
            d.next(intervals.emplace_back());
        d.finish();
        return true;
    }));
    return logs;
}

LogFileInfo
LogReader::info()
{
    LogFileInfo info;
    info.version = version_;
    info.fingerprint = fingerprint_;
    info.coreCount = coreCount_;
    info.meta = meta_;
    info.fileBytes = fileBytes_;
    info.chunks = 1; // the meta chunk
    IntervalRecord iv;
    const WalkEnd end =
        walk(OnProblem::Throw, nullptr, [&](const Chunk &chunk) {
            ++info.chunks;
            checkChunk(chunk);
            if (chunk.header.type != ChunkType::Data)
                return true;
            ++info.dataChunks;
            info.payloadBits += chunk.header.payloadBits;
            ChunkDecoder d(chunk.payload, chunk.header, chunk.offset,
                           coreCount_);
            for (std::uint64_t k = 0; k < d.count(); ++k)
                d.next(iv);
            d.finish();
            info.intervals += d.count();
            return true;
        });
    info.cleanEnd = end.reason == WalkEnd::End;
    info.hasSummary = haveSummary_;
    if (haveSummary_)
        info.summary = summary_;
    return info;
}

RecordingSummary
LogReader::summary()
{
    if (!haveSummary_)
        requireEnd(walk(OnProblem::Throw, nullptr, [&](const Chunk &chunk) {
            if (chunk.header.type != ChunkType::Data)
                checkChunk(chunk);
            return true;
        }));
    if (!haveSummary_)
        throw LogStoreError("file has no summary chunk "
                            "(recording was never finished)",
                            fileBytes_);
    return summary_;
}

std::vector<VerifyIssue>
LogReader::verify()
{
    std::vector<VerifyIssue> issues;
    auto note = [&](std::uint64_t offset, std::int64_t seq,
                    std::string message) {
        issues.push_back({offset, seq, std::move(message)});
    };

    std::vector<std::uint64_t> intervals_per_core(coreCount_, 0);
    bool have_summary = false;
    RecordingSummary summary;
    IntervalRecord iv;
    const WalkEnd end =
        walk(OnProblem::Note, &issues, [&](const Chunk &chunk) {
            if (!chunk.crcOk()) {
                note(chunk.offset, chunk.seq(), "chunk payload CRC mismatch");
                return true;
            }
            try {
                switch (chunk.header.type) {
                  case ChunkType::Data: {
                    ChunkDecoder d(chunk.payload, chunk.header,
                                   chunk.offset, coreCount_);
                    for (std::uint64_t k = 0; k < d.count(); ++k) {
                        d.next(iv);
                        ++intervals_per_core[chunk.header.core];
                    }
                    d.finish();
                    break;
                  }
                  case ChunkType::Summary: {
                    Cursor c(chunk.payload, chunk.header.payloadBits,
                             chunk.offset, chunk.seq());
                    summary = decodeSummary(c);
                    have_summary = true;
                    break;
                  }
                  case ChunkType::End:
                    break;
                  case ChunkType::Meta:
                    note(chunk.offset, chunk.seq(), "duplicate meta chunk");
                    break;
                }
            } catch (const LogStoreError &e) {
                note(e.fileOffset(), e.chunkSeq(), e.what());
            }
            return true;
        });

    if (end.reason == WalkEnd::Broken)
        return issues; // the framing broke: nothing past it is known
    const std::uint64_t offset = end.offset;
    if (end.reason == WalkEnd::Eof)
        note(offset, -1,
             "no end-of-log marker: the recording was truncated");
    if (!have_summary && !partial())
        note(offset, -1, "file has no summary chunk");
    if (have_summary) {
        if (summary.cores.size() != coreCount_)
            note(offset, -1, "summary core count disagrees with header");
        // A partial file's Summary describes the full recording, so its
        // interval counts legitimately exceed the data chunks'.
        for (std::size_t c = 0;
             !partial() && c < summary.cores.size() && c < coreCount_;
             ++c) {
            if (summary.cores[c].intervals != intervals_per_core[c])
                note(offset, -1,
                     "core " + std::to_string(c) + ": summary promises " +
                         std::to_string(summary.cores[c].intervals) +
                         " intervals, data chunks hold " +
                         std::to_string(intervals_per_core[c]));
        }
    }
    return issues;
}

RecoveryResult
LogReader::recoverPrefix()
{
    RecoveryResult rec;
    rec.logs.resize(coreCount_);
    auto note = [&](std::uint64_t offset, std::int64_t seq,
                    std::string message) {
        rec.issues.push_back({offset, seq, std::move(message)});
    };

    // Once a core loses a chunk (bad payload, decode error), all of its
    // later chunks are discarded too: keeping them would leave a hole in
    // the core's interval stream, and a salvage must be a prefix. A
    // sequence break or a broken framing header ends the walk itself.
    std::vector<bool> core_live(coreCount_, true);
    rec.usableBytes = firstDataOffset_;
    const WalkEnd end =
        walk(OnProblem::Salvage, &rec.issues, [&](const Chunk &chunk) {
            rec.usableBytes = chunk.end();
            const bool payload_ok = chunk.crcOk();
            switch (chunk.header.type) {
              case ChunkType::Data: {
                const std::uint32_t core = chunk.header.core;
                if (core >= coreCount_) {
                    ++rec.droppedChunks;
                    note(chunk.offset, chunk.seq(),
                         "data chunk names core " + std::to_string(core) +
                             " but the file has " +
                             std::to_string(coreCount_) + " cores");
                    break;
                }
                if (!core_live[core]) {
                    ++rec.droppedChunks;
                    break;
                }
                if (!payload_ok) {
                    core_live[core] = false;
                    ++rec.droppedChunks;
                    note(chunk.offset, chunk.seq(),
                         "core " + std::to_string(core) +
                             ": payload CRC mismatch; dropping this and "
                             "all later chunks of the core");
                    break;
                }
                // All or nothing: a chunk that fails mid-decode
                // contributes no intervals.
                std::vector<IntervalRecord> staged;
                try {
                    staged = decodeDataChunk(chunk.payload, chunk.header,
                                             chunk.offset, coreCount_);
                } catch (const LogStoreError &e) {
                    core_live[core] = false;
                    ++rec.droppedChunks;
                    note(e.fileOffset(), e.chunkSeq(),
                         std::string("core ") + std::to_string(core) +
                             ": " + e.what() +
                             "; dropping this and all later chunks of "
                             "the core");
                    break;
                }
                auto &intervals = rec.logs[core].intervals;
                intervals.insert(intervals.end(),
                                 std::make_move_iterator(staged.begin()),
                                 std::make_move_iterator(staged.end()));
                rec.salvagedIntervals += staged.size();
                ++rec.salvagedChunks;
                break;
              }
              case ChunkType::Summary:
                if (!payload_ok) {
                    note(chunk.offset, chunk.seq(),
                         "summary chunk payload CRC mismatch; ignored");
                    break;
                }
                try {
                    Cursor c(chunk.payload, chunk.header.payloadBits,
                             chunk.offset, chunk.seq());
                    rec.summary = decodeSummary(c);
                    rec.hasSummary = true;
                } catch (const LogStoreError &e) {
                    note(e.fileOffset(), e.chunkSeq(),
                         std::string("summary chunk undecodable: ") +
                             e.what());
                }
                break;
              case ChunkType::End:
                break;
              case ChunkType::Meta:
                note(chunk.offset, chunk.seq(),
                     "duplicate meta chunk; ignored");
                break;
            }
            return true;
        });
    rec.cleanEnd = end.reason == WalkEnd::End;
    rec.coreTruncated.resize(coreCount_);
    for (std::uint32_t c = 0; c < coreCount_; ++c)
        rec.coreTruncated[c] = !rec.cleanEnd || !core_live[c];
    return rec;
}

std::uint64_t
consistentCut(std::vector<CoreLog> &logs,
              const std::vector<bool> &truncated)
{
    // No truncation info = assume the worst about every core.
    auto is_truncated = [&](std::size_t c) {
        return truncated.empty() || (c < truncated.size() && truncated[c]);
    };
    bool constrained = false;
    std::uint64_t cut = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t c = 0; c < logs.size(); ++c) {
        if (!is_truncated(c))
            continue;
        constrained = true;
        if (logs[c].intervals.empty()) {
            // A truncated core with nothing salvaged: no interval of
            // any other core is known to be safe to replay against it.
            cut = 0;
            break;
        }
        cut = std::min(cut, logs[c].intervals.back().timestamp);
    }
    if (!constrained) {
        // Every core's stream is complete: the logs already form a
        // consistent set; report the last timestamp for information.
        std::uint64_t last = 0;
        for (const auto &log : logs)
            if (!log.intervals.empty())
                last = std::max(last, log.intervals.back().timestamp);
        return last;
    }
    if (cut == std::numeric_limits<std::uint64_t>::max())
        cut = 0;

    // A reordered store or atomic is logged in the interval that counts
    // it and performed `offset` intervals earlier, where rnr::patch()
    // moves its effect. A cut that keeps the perform interval but trims
    // the counting one would drop the store from a prefix whose other
    // intervals may have read it: lower the cut below every such
    // perform interval. That trims more intervals, which can expose
    // more such stores, so repeat until the cut holds still.
    for (bool lowered = true; lowered;) {
        lowered = false;
        for (const auto &log : logs) {
            const auto &iv = log.intervals;
            std::size_t kept = iv.size();
            while (kept > 0 && iv[kept - 1].timestamp > cut)
                --kept;
            for (std::size_t j = kept; j < iv.size(); ++j) {
                for (const LogEntry &e : iv[j].entries) {
                    if ((e.kind != EntryKind::ReorderedStore &&
                         e.kind != EntryKind::ReorderedAtomic) ||
                        e.offset == 0 || e.offset > j ||
                        j - e.offset >= kept)
                        continue;
                    const std::uint64_t performed =
                        iv[j - e.offset].timestamp;
                    if (performed == 0) {
                        for (auto &l : logs)
                            l.intervals.clear();
                        return 0;
                    }
                    if (performed - 1 < cut) {
                        cut = performed - 1;
                        lowered = true;
                    }
                }
            }
        }
    }
    for (auto &log : logs) {
        auto &iv = log.intervals;
        while (!iv.empty() && iv.back().timestamp > cut)
            iv.pop_back();
    }
    return cut;
}

} // namespace rr::rnr
