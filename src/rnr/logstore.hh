/**
 * @file
 * Persistent log store: streaming writer and integrity-checking reader
 * for `.rrlog` files — the durable, versioned container that lets a
 * recording outlive its process ("record once, replay/analyze many
 * times"). See format.hh for the wire layout and docs/LOG_FORMAT.md
 * for the specification.
 *
 * The LogWriter is *streaming*: the recorder hands it each interval as
 * the interval closes (Machine::setIntervalSink), and the writer flushes
 * a core's pending chunk to disk whenever it reaches ~64 KiB — memory
 * stays bounded and there is no end-of-run serialization spike. The
 * LogReader validates every CRC as it walks the file, reconstructs
 * CoreLogs (or iterates intervals lazily), and reports corruption or
 * truncation as a LogStoreError naming the file offset and chunk,
 * never by crashing or silently replaying garbage.
 */

#ifndef RR_RNR_LOGSTORE_HH
#define RR_RNR_LOGSTORE_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "rnr/format.hh"
#include "rnr/log.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace rr::rnr
{

/**
 * Classification of a LogStoreError; tools map it to distinct exit
 * codes so scripts can branch on "the file is corrupt" vs "the
 * operating system failed us" (rrlog: 1 vs 3).
 */
enum class LogErrorKind
{
    Format, ///< structural/integrity/compatibility failure in the file
    Io,     ///< OS-level I/O failure; osError() carries the errno
    Crash,  ///< injected crash-at-byte fault tore the file mid-write
};

/**
 * Any structural, integrity or compatibility failure while reading or
 * writing a .rrlog file. The what() string already includes the file
 * offset, chunk id and errno text when they are known.
 */
class LogStoreError : public std::runtime_error
{
  public:
    /**
     * @param chunk_seq -1 when the failure is not tied to a chunk.
     * @param os_error errno of the failing call; 0 when none.
     */
    LogStoreError(const std::string &message, std::uint64_t file_offset,
                  std::int64_t chunk_seq = -1,
                  LogErrorKind kind = LogErrorKind::Format,
                  int os_error = 0);

    std::uint64_t fileOffset() const { return fileOffset_; }
    std::int64_t chunkSeq() const { return chunkSeq_; }
    LogErrorKind kind() const { return kind_; }
    /** errno context of an Io failure (0 when not OS-level). */
    int osError() const { return osError_; }

  private:
    std::uint64_t fileOffset_;
    std::int64_t chunkSeq_;
    LogErrorKind kind_;
    int osError_;
};

/**
 * Recording parameters persisted in the Meta chunk: everything needed
 * to rebuild the workload and machine deterministically for replay,
 * and the source of the header's configuration fingerprint.
 */
struct RecordingMeta
{
    std::string kernel;
    std::uint32_t cores = 0;
    std::uint64_t scale = 1;
    std::uint64_t intensity = 16;
    std::uint64_t workloadSeed = 12345;
    std::uint64_t machineSeed = 1;
    sim::RecorderMode mode = sim::RecorderMode::Opt;
    std::uint64_t intervalCap = 0; ///< 0 = INF
    bool deps = false;
    /**
     * Coherence backend the recording machine was built with. Replay
     * rebuilds the same machine from it; it participates in the
     * fingerprint, so a reader asked to replay a directory-tagged log
     * on a snoopy machine (or vice versa) refuses cleanly.
     */
    sim::CoherenceKind coherence = sim::CoherenceKind::Snoopy;

    /**
     * 64-bit FNV-1a hash over every field above (plus the format
     * version). Stored in the file header; a reader recomputes it from
     * the decoded Meta chunk and refuses the file on mismatch, and
     * replay tooling uses it to refuse logs from a different machine
     * configuration.
     */
    std::uint64_t fingerprint() const;

    bool operator==(const RecordingMeta &) const = default;
};

/** Per-core replay-verification targets (Summary chunk). */
struct CoreReplaySummary
{
    std::uint64_t intervals = 0;
    std::uint64_t retiredInstructions = 0;
    std::uint64_t retiredLoads = 0;
    /** rnr::mixLoadValue chain over retired load/atomic values. */
    std::uint64_t loadValueHash = 0;

    bool operator==(const CoreReplaySummary &) const = default;
};

/** Whole-recording verification targets (Summary chunk). */
struct RecordingSummary
{
    std::uint64_t totalInstructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t memoryFingerprint = 0;
    std::vector<CoreReplaySummary> cores;

    bool operator==(const RecordingSummary &) const = default;
};

/** Tunables of a LogWriter (defaults match the PR-3 behaviour). */
struct WriterOptions
{
    /** A core's pending chunk is flushed once its payload reaches this. */
    std::size_t chunkTargetBytes = fmt::kChunkTargetBytes;
};

/**
 * Streaming .rrlog writer. Construction writes the file header and the
 * Meta chunk; append() buffers one interval into the producing core's
 * pending chunk and flushes it once it reaches chunkTargetBytes;
 * finish() flushes every pending chunk, then writes the Summary and End
 * chunks. A file without an End chunk is detected as truncated by the
 * reader, so finish() must be called for a valid file.
 *
 * Crash consistency (path mode): the writer writes to `path + ".tmp"`
 * and atomically renames onto the final path only after finish() has
 * fsync'd everything, so a crash mid-recording can never leave a
 * half-written file under the final name — at worst a torn `.tmp` that
 * `rrlog repair` can salvage a prefix from. Transient write/sync
 * failures (real or injected by sim::FaultInjector) are retried a few
 * times with exponential backoff; persistent ones surface as
 * LogStoreError with kind Io and the errno attached.
 *
 * I/O counters (bytes/chunks/flushes/intervals/retries/padding bits)
 * are kept in a StatSet for the `--stats-json` export path.
 */
class LogWriter
{
  public:
    /**
     * Write into a caller-owned stream (e.g. a bench's ostringstream).
     * Stream mode has no retry/rename/fault machinery — it is the
     * simple in-memory path for tests and benches.
     */
    LogWriter(std::ostream &out, const RecordingMeta &meta,
              const WriterOptions &opts = {});

    /** Open and own @p path; throws LogStoreError when unwritable. */
    LogWriter(const std::string &path, const RecordingMeta &meta,
              const WriterOptions &opts = {});

    ~LogWriter();

    /** Append one closed interval of @p core (streaming hot path). */
    void append(sim::CoreId core, const IntervalRecord &interval);

    /** Flush pending chunks and write the Summary and End chunks. */
    void finish(const RecordingSummary &summary);

    /**
     * Finish a deliberately incomplete file (`rrlog repair`): flush
     * pending chunks, optionally write a Summary (e.g. one salvaged
     * from the torn original), write the End chunk and set the partial
     * header flag. The result is structurally valid and replayable
     * with `--allow-partial`.
     */
    void finishPartial(const RecordingSummary *summary = nullptr);

    /** Mark the file partial (set fmt::kFlagPartial at finish time). */
    void markPartial() { headerFlags_ |= fmt::kFlagPartial; }

    bool finished() const { return finished_; }
    std::uint64_t bytesWritten() const { return bytesWritten_; }
    std::uint64_t intervalsWritten() const { return intervalsWritten_; }
    std::uint16_t headerFlags() const { return headerFlags_; }
    /** The path the data is at *right now* (.tmp until finished). */
    const std::string &currentPath() const
    {
        return finished_ || path_.empty() ? path_ : tmpPath_;
    }

    sim::StatSet &stats() { return stats_; }
    const sim::StatSet &stats() const { return stats_; }

  private:
    /** Pending (unflushed) chunk of one core. */
    struct CoreStream
    {
        BitWriter bits;
        std::uint64_t intervals = 0;
        /** Delta-codec state; reset at each chunk boundary. */
        bool first = true;
        sim::Isn prevCisn = 0;
        std::uint64_t prevTimestamp = 0;
    };

    void writeFileHeader();
    void writeMetaChunk();
    void encodeInterval(CoreStream &cs, const IntervalRecord &iv);
    void flushCore(sim::CoreId core);
    void writeChunk(fmt::ChunkType type, std::uint32_t core,
                    const std::vector<std::uint8_t> &payload,
                    std::uint64_t payload_bits);

    /**
     * The single raw output path: writes @p n bytes with injected-fault
     * consultation, partial-write resumption and bounded
     * retry-with-backoff (path mode). Throws LogStoreError (kind Io
     * with errno, or Crash) when the write cannot complete.
     */
    void writeRaw(const void *data, std::size_t n);

    /** fflush + fsync with the same retry/injection policy. */
    void syncFile(const char *what);

    /** Re-write the 24-byte header in place (late flag changes). */
    void rewriteHeader();

    /** Flush pending data, write optional summary, End, finalize. */
    void finishCommon(const RecordingSummary *summary);

    /** Close and atomically rename tmp -> final (path mode). */
    void finalizeFile();

    std::ostream *stream_ = nullptr; ///< stream mode; null in path mode
    std::FILE *file_ = nullptr;      ///< path mode; null in stream mode
    std::string path_;    ///< final path; empty for stream mode
    std::string tmpPath_; ///< path_ + ".tmp" staging file (path mode)
    RecordingMeta meta_;
    WriterOptions opts_;
    /**
     * The installed fault plan's log-byte budget (`budget=N`; 0 =
     * unlimited). Once the file would exceed it, append() flushes every
     * pending chunk once (a bounded overshoot that keeps the on-disk
     * set a cross-core consistent close-order prefix), then drops
     * further intervals (counted in `intervals_dropped_budget`) and
     * flags the file partial; finish() still lands a Summary + End.
     */
    std::uint64_t budgetBytes_ = 0;
    std::uint16_t headerFlags_ = 0;
    std::vector<CoreStream> streams_;
    std::uint64_t nextChunkSeq_ = 0;
    std::uint64_t bytesWritten_ = 0;
    std::uint64_t intervalsWritten_ = 0;
    bool finished_ = false;
    bool dead_ = false;           ///< an injected crash tore the file
    bool budgetExceeded_ = false; ///< dropping intervals (see budget)
    sim::StatSet stats_;
};

/** Everything `rrlog info` reports about a file. */
struct LogFileInfo
{
    std::uint16_t version = 0;
    std::uint16_t flags = 0;      ///< header flags (fmt::kFlagPartial…)
    std::uint64_t fingerprint = 0;
    std::uint32_t coreCount = 0;
    RecordingMeta meta;
    bool hasSummary = false;
    RecordingSummary summary;
    std::uint64_t fileBytes = 0;
    std::uint64_t chunks = 0;     ///< all chunks, meta/summary/end included
    std::uint64_t dataChunks = 0;
    std::uint64_t intervals = 0;  ///< intervals across all data chunks
    std::uint64_t payloadBits = 0; ///< data-chunk payload bits
    bool cleanEnd = false;        ///< End chunk present
};

/** One problem found by LogReader::verify(). */
struct VerifyIssue
{
    std::uint64_t fileOffset = 0;
    std::int64_t chunkSeq = -1;
    std::string message;
};

/**
 * What LogReader::recoverPrefix() salvaged from a (possibly torn)
 * file. Per-core chunk-prefix semantics: a core's intervals are taken
 * from its data chunks in order up to — but not including — the first
 * chunk that is corrupt, truncated or lost to a framing break, so
 * every salvaged interval is known-good and every core's salvage is a
 * prefix of its recorded stream. A sequence break ends the salvage of
 * every core: the missing chunk could have been anyone's, so nothing
 * after it is known to continue a prefix. A file written by finish()
 * salvages completely (cleanEnd, hasSummary, no issues).
 */
struct RecoveryResult
{
    std::vector<CoreLog> logs; ///< salvaged per-core interval prefixes
    std::uint64_t salvagedIntervals = 0;
    std::uint64_t salvagedChunks = 0; ///< data chunks decoded
    std::uint64_t droppedChunks = 0;  ///< data chunks lost/discarded
    std::uint64_t usableBytes = 0;    ///< file prefix covered by salvage
    bool cleanEnd = false;            ///< End marker reached
    bool hasSummary = false;
    RecordingSummary summary;
    /**
     * Per core: whether the salvage may be missing recorded intervals
     * of that core — it lost a chunk, or the walk never reached the End
     * marker (the torn tail could have held anyone's chunks). Only
     * truncated cores constrain consistentCut(); a file that salvages
     * cleanly has no truncated cores and loses nothing to the cut.
     */
    std::vector<bool> coreTruncated;
    /** Why salvage stopped / what was skipped (empty = file sound). */
    std::vector<VerifyIssue> issues;
};

/**
 * Trim salvaged per-core logs to a *consistent cut*: keep only
 * intervals whose timestamp is <= the smallest last-interval timestamp
 * across the *truncated* cores (see RecoveryResult::coreTruncated; an
 * empty @p truncated conservatively treats every core as truncated).
 * Interval timestamps are the global replay total order and increase
 * monotonically per core, so the kept set is exactly the set of
 * intervals the original execution had closed by that point — a prefix
 * that replays without depending on any lost interval. The cut is then
 * lowered below the perform interval of every reordered store or
 * atomic that a trimmed interval counts, repeatedly until it holds
 * still, so that no kept interval lacks a store rnr::patch() would
 * have moved into it. A truncated core with nothing salvaged forces
 * an empty cut (nothing is known to be safe to replay against it); a
 * complete core never constrains the cut, which makes the operation
 * idempotent across repair/replay.
 *
 * @return the cut timestamp actually applied (0 when everything was
 *         trimmed; the last timestamp present when nothing was).
 */
std::uint64_t consistentCut(std::vector<CoreLog> &logs,
                            const std::vector<bool> &truncated = {});

/**
 * Kept for perfbench/ until the next benchmark change, which names
 * IngestMode::Auto when it opens a LogReader. It selects nothing: a
 * reader gets its bytes one way.
 */
enum class IngestMode
{
    Auto,
};

/**
 * Integrity-checking .rrlog reader. The constructor validates the file
 * header and the Meta chunk (magic, version, header CRC, fingerprint)
 * and throws LogStoreError on any mismatch.
 *
 * The reader gets bytes one way: positioned reads (pread) of each chunk
 * header and payload into the chunk's own buffer, so peak memory is the
 * chunks a call holds, never a mapping of the file. A read that comes
 * back short (the file shrank while open) or fails throws LogStoreError
 * kind Io; no entry point notes an I/O failure as damage to the file.
 *
 * Every entry point below reads the rest of the file through one chunk
 * walk: it reads each chunk header, checks the chunk's sequence number,
 * moves on, and after the End marker checks that no bytes trail it.
 * The entry point decides what a problem does: readAll(),
 * walkIntervals(), info() and summary() throw it, verify() notes it and
 * goes on, and recoverPrefix() notes it and ends the salvage. Within a
 * chunk the order is framing, sequence number, payload CRC, contents.
 */
class LogReader
{
  public:
    /**
     * Open @p path and check its header and Meta chunk. A path that
     * cannot be opened, or is not a regular file (a FIFO, a directory,
     * a device), throws kind Io without blocking. The unnamed argument
     * is kept for perfbench/ until the next benchmark change.
     */
    explicit LogReader(const std::string &path,
                       IngestMode = IngestMode::Auto);

    /** The reader owns its file descriptor; readers don't copy. */
    LogReader(const LogReader &) = delete;
    LogReader &operator=(const LogReader &) = delete;

    const std::string &path() const { return path_; }
    std::uint64_t fileBytes() const { return fileBytes_; }
    std::uint16_t version() const { return version_; }
    std::uint16_t flags() const { return flags_; }
    /** Whether the file is flagged as a deliberate partial recording. */
    bool partial() const { return (flags_ & fmt::kFlagPartial) != 0; }
    /** Whether the header tags a directory-coherence recording. */
    bool directory() const { return (flags_ & fmt::kFlagDirectory) != 0; }
    std::uint64_t fingerprint() const { return fingerprint_; }
    std::uint32_t coreCount() const { return coreCount_; }
    const RecordingMeta &meta() const { return meta_; }

    /**
     * Walk every chunk once, decoding each, and collect file-level
     * facts (including the Summary when present). Throws on the first
     * problem, except that a file ending without an End marker reports
     * cleanEnd false.
     */
    LogFileInfo info();

    /** Where an interval handed out by walkIntervals() came from. */
    struct ChunkView
    {
        std::uint64_t seq = 0;
        std::uint64_t offset = 0;      ///< file offset of the header
        std::uint64_t payloadBits = 0; ///< the whole chunk's payload
    };

    /**
     * Decode intervals in file order, one chunk at a time (peak memory
     * is one chunk, not the file), invoking @p fn with the producing
     * core, the reconstructed interval (cycle is not persisted and
     * reads back 0) and the source chunk. The interval is only valid
     * during the call. @p fn returning false stops the walk immediately
     * — no further chunk is read or validated — and walkIntervals
     * returns false; walking to the End marker (which is then required,
     * as is the absence of trailing bytes) returns true. Throws
     * LogStoreError on corruption.
     */
    bool walkIntervals(
        const std::function<bool(sim::CoreId, const IntervalRecord &,
                                 const ChunkView &)> &fn);

    /**
     * Reconstruct all per-core logs: the chunk walk CRC-checks and
     * decodes each data chunk when it reaches it, straight into its
     * core's log, so a damaged file throws the problem at the earliest
     * file offset. Requires a clean End chunk.
     */
    std::vector<CoreLog> readAll();

    /**
     * Kept for perfbench/ until the next benchmark change, which calls
     * it; @p workers selects nothing: it is readAll().
     */
    std::vector<CoreLog> readAllParallel(std::uint32_t /*workers*/ = 0)
    {
        return readAll();
    }

    /**
     * The recording summary. Walks the chunks and decodes the Summary
     * chunk only (no data chunk is CRC-checked or decoded), or returns
     * the Summary an earlier walk decoded. Throws LogStoreError when the walk finds a
     * problem or the file has no Summary (truncated before finish()).
     */
    RecordingSummary summary();

    /**
     * Full structural walk that *collects* problems instead of throwing:
     * every CRC failure, framing error, sequence break, truncation,
     * decode error and summary/data inconsistency found, each naming
     * its file offset and chunk. An empty result means the file is
     * sound. Payloads of chunks whose framing header is intact but
     * whose payload CRC fails are skipped, so one corrupt chunk does
     * not mask later ones; a broken framing header ends the walk.
     * Files flagged partial are exempt from the "has a summary" and
     * "summary interval counts match the data" requirements. An I/O
     * failure is not a problem of the file and still throws.
     */
    std::vector<VerifyIssue> verify();

    /**
     * Salvage the longest valid per-core chunk prefix from a torn or
     * damaged file (see RecoveryResult). Never throws on damage past
     * the meta chunk — damage bounds the salvage and is reported in
     * RecoveryResult::issues instead; an I/O failure still throws.
     * `rrlog repair` writes the result back out as a partial-flagged
     * file; `rrsim replay --allow-partial` replays it directly after a
     * consistentCut().
     */
    RecoveryResult recoverPrefix();

  private:
    // The chunk walk's types and functions; see logstore.cc.
    struct Chunk;
    struct WalkEnd;
    enum class OnProblem;

    void readAt(std::uint64_t pos, std::uint8_t *dest, std::size_t n,
                const char *what, std::uint64_t offset,
                std::int64_t chunk_seq) const;
    bool readChunk(std::uint64_t offset, Chunk &out) const;
    template <typename Visit>
    WalkEnd walk(OnProblem policy, std::vector<VerifyIssue> *notes,
                 Visit &&visit);
    void requireEnd(const WalkEnd &end) const;
    void checkChunk(const Chunk &chunk);

    /** Owns the descriptor: closed also when the constructor throws. */
    struct Fd
    {
        Fd() = default;
        Fd(const Fd &) = delete;
        Fd &operator=(const Fd &) = delete;
        ~Fd();

        int fd = -1;
    };

    std::string path_;
    Fd fd_;
    std::uint64_t fileBytes_ = 0; ///< the size fstat reported at open
    std::uint16_t version_ = 0;
    std::uint16_t flags_ = 0;
    std::uint64_t fingerprint_ = 0;
    std::uint32_t coreCount_ = 0;
    RecordingMeta meta_;
    std::uint64_t firstDataOffset_ = 0;
    bool haveSummary_ = false;
    RecordingSummary summary_;
};

} // namespace rr::rnr

#endif // RR_RNR_LOGSTORE_HH
