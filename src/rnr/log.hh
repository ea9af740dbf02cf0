/**
 * @file
 * The RelaxReplay log: structured representation, packed bit sizes
 * (paper Figure 6c), serialization, and summary statistics.
 *
 * A per-core log is a sequence of interval records, each a list of
 * entries closed by an IntervalFrame carrying the interval's CISN and
 * its global ordering timestamp (QuickRec-style total order).
 *
 * Entry kinds:
 *  - InorderBlock      — recording + replay: N consecutive instructions
 *                        to execute natively.
 *  - ReorderedLoad     — recording + replay: next instruction is a load;
 *                        inject the recorded value.
 *  - ReorderedStore    — recording only: next instruction is a store
 *                        that performed `offset` intervals earlier; the
 *                        patching pass rewrites it.
 *  - ReorderedAtomic   — recording only (extension: the paper does not
 *                        treat RMW instructions): fused load+store.
 *  - PatchedStore      — replay only: apply value to address, no
 *                        instruction consumed (end of perform interval).
 *  - DummyStore        — replay only: skip one store instruction.
 *  - DummyAtomic       — replay only: next instruction is an atomic;
 *                        inject the recorded old value, skip the
 *                        memory update (already applied by PatchedStore).
 */

#ifndef RR_RNR_LOG_HH
#define RR_RNR_LOG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace rr::rnr
{

enum class EntryKind : std::uint8_t
{
    InorderBlock = 0,
    ReorderedLoad = 1,
    ReorderedStore = 2,
    ReorderedAtomic = 3,
    PatchedStore = 4,
    DummyStore = 5,
    DummyAtomic = 6,
};

const char *toString(EntryKind k);

/**
 * Hash chain over a core's load/atomic values, in program order: the
 * recording's reference trace (RecordingSummary's loadValueHash) and
 * the replay engines' per-core digest are both this chain.
 */
constexpr std::uint64_t
mixLoadValue(std::uint64_t hash, std::uint64_t value)
{
    hash ^= value + 0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2);
    return hash * 0x2545f4914f6cdd1dULL;
}

/** Packed field widths, in bits (Figure 6c; type tag is 3 bits). */
namespace bits
{
inline constexpr std::uint32_t kTypeTag = 3;
inline constexpr std::uint32_t kBlockSize = 32;
inline constexpr std::uint32_t kValue = 64;
inline constexpr std::uint32_t kAddress = 48;
inline constexpr std::uint32_t kOffset = 16;
inline constexpr std::uint32_t kCisn = 16;
inline constexpr std::uint32_t kTimestamp = 64;
/** Dependency-mode frame extension fields. */
inline constexpr std::uint32_t kDepCount = 8;
inline constexpr std::uint32_t kDepCore = 8;
inline constexpr std::uint32_t kDepIsn = 32;
} // namespace bits

struct LogEntry
{
    EntryKind kind = EntryKind::InorderBlock;
    /** InorderBlock: instruction count. */
    std::uint64_t blockSize = 0;
    /** Word address (ReorderedStore/Atomic, PatchedStore). */
    sim::Addr addr = 0;
    /** Loaded value (ReorderedLoad/Atomic, DummyAtomic). */
    std::uint64_t loadValue = 0;
    /** Stored value (ReorderedStore/Atomic, PatchedStore). */
    std::uint64_t storeValue = 0;
    /** CISN(count) - PISN(perform): how many intervals ago it performed. */
    std::uint32_t offset = 0;

    /** Packed size of this entry in the serialized log. */
    std::uint32_t sizeBits() const;

    static LogEntry
    inorderBlock(std::uint64_t n)
    {
        LogEntry e;
        e.kind = EntryKind::InorderBlock;
        e.blockSize = n;
        return e;
    }

    static LogEntry
    reorderedLoad(std::uint64_t value)
    {
        LogEntry e;
        e.kind = EntryKind::ReorderedLoad;
        e.loadValue = value;
        return e;
    }

    static LogEntry
    reorderedStore(sim::Addr addr, std::uint64_t value,
                   std::uint32_t offset)
    {
        LogEntry e;
        e.kind = EntryKind::ReorderedStore;
        e.addr = addr;
        e.storeValue = value;
        e.offset = offset;
        return e;
    }

    static LogEntry
    reorderedAtomic(sim::Addr addr, std::uint64_t load_value,
                    std::uint64_t store_value, std::uint32_t offset)
    {
        LogEntry e;
        e.kind = EntryKind::ReorderedAtomic;
        e.addr = addr;
        e.loadValue = load_value;
        e.storeValue = store_value;
        e.offset = offset;
        return e;
    }

    static LogEntry
    patchedStore(sim::Addr addr, std::uint64_t value)
    {
        LogEntry e;
        e.kind = EntryKind::PatchedStore;
        e.addr = addr;
        e.storeValue = value;
        return e;
    }

    static LogEntry
    dummyStore()
    {
        LogEntry e;
        e.kind = EntryKind::DummyStore;
        return e;
    }

    static LogEntry
    dummyAtomic(std::uint64_t load_value)
    {
        LogEntry e;
        e.kind = EntryKind::DummyAtomic;
        e.loadValue = load_value;
        return e;
    }

    bool operator==(const LogEntry &) const = default;
};

/** An inter-interval ordering edge: this interval's predecessor. */
struct IntervalDep
{
    sim::CoreId core = 0;
    sim::Isn isn = 0;

    bool operator==(const IntervalDep &) const = default;
};

/** One interval's record: entries plus the closing IntervalFrame. */
struct IntervalRecord
{
    std::vector<LogEntry> entries;
    /** Full-width CISN (the packed form keeps the low 16 bits). */
    sim::Isn cisn = 0;
    /** Global ordering timestamp (unique serialization stamp). */
    std::uint64_t timestamp = 0;
    /** Cycle of termination (reporting only; not serialized). */
    sim::Cycle cycle = 0;
    /**
     * Explicit predecessors (only with recordDependencies): intervals
     * of other cores that must replay before this one. Same-core
     * program order is implicit.
     */
    std::vector<IntervalDep> predecessors;

    std::uint64_t sizeBits() const;

    bool operator==(const IntervalRecord &) const = default;
};

/** The log of one core for one recorded execution. */
struct CoreLog
{
    std::vector<IntervalRecord> intervals;

    std::uint64_t sizeBits() const;
};

/** Aggregate counts for the figures. */
struct LogStats
{
    std::uint64_t intervals = 0;
    std::uint64_t inorderBlocks = 0;
    std::uint64_t inorderInstructions = 0; ///< sum of block sizes
    std::uint64_t reorderedLoads = 0;
    std::uint64_t reorderedStores = 0;
    std::uint64_t reorderedAtomics = 0;
    std::uint64_t totalBits = 0;

    std::uint64_t
    reordered() const
    {
        return reorderedLoads + reorderedStores + reorderedAtomics;
    }

    /** Total instructions the log replays. */
    std::uint64_t
    instructions() const
    {
        return inorderInstructions + reordered();
    }

    /** Count one interval. */
    void add(const IntervalRecord &iv);
    /** Count every interval of @p log. */
    void accumulate(const CoreLog &log);
    LogStats &operator+=(const LogStats &o);
};

/**
 * Check the invariants replay relies on in recorded (unpatched) logs
 * read from an untrusted source:
 *  - per core, timestamps strictly increase;
 *  - every ReorderedStore/ReorderedAtomic has an offset in
 *    [1, its interval's index], so patching stays inside the log;
 *  - every dependency edge names an existing interval with a smaller
 *    timestamp, which makes timestamp order a topological order.
 * The replay engines assert these; a caller checks them first so a
 * bad file is refused instead.
 * @return the first violation, naming the core and interval; empty
 *         when the logs are sound.
 */
std::string replayInvariantViolation(const std::vector<CoreLog> &logs);

/** Serialized (bit-packed) form. */
struct PackedLog
{
    std::vector<std::uint8_t> bytes;
    std::uint64_t bitCount = 0;
};

PackedLog pack(const CoreLog &log);
CoreLog unpack(const PackedLog &packed);

} // namespace rr::rnr

#endif // RR_RNR_LOG_HH
