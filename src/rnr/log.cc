#include "rnr/log.hh"

#include <algorithm>

#include "rnr/bitstream.hh"
#include "sim/logging.hh"

namespace rr::rnr
{

namespace
{
/** Packed-stream tag closing an interval (not an in-memory EntryKind). */
constexpr std::uint64_t kFrameTag = 7;

bool
hasDependencies(const CoreLog &log)
{
    for (const auto &iv : log.intervals) {
        if (!iv.predecessors.empty())
            return true;
    }
    return false;
}
} // namespace

const char *
toString(EntryKind k)
{
    switch (k) {
      case EntryKind::InorderBlock: return "InorderBlock";
      case EntryKind::ReorderedLoad: return "ReorderedLoad";
      case EntryKind::ReorderedStore: return "ReorderedStore";
      case EntryKind::ReorderedAtomic: return "ReorderedAtomic";
      case EntryKind::PatchedStore: return "PatchedStore";
      case EntryKind::DummyStore: return "DummyStore";
      case EntryKind::DummyAtomic: return "DummyAtomic";
    }
    return "?";
}

std::string
describe(const LogEntry &e)
{
    switch (e.kind) {
      case EntryKind::InorderBlock:
        return sim::strfmt("InorderBlock    %llu instructions",
                           static_cast<unsigned long long>(e.blockSize));
      case EntryKind::ReorderedLoad:
        return sim::strfmt("ReorderedLoad   value=%llu",
                           static_cast<unsigned long long>(e.loadValue));
      case EntryKind::ReorderedStore:
        return sim::strfmt("ReorderedStore  addr=0x%llx value=%llu "
                           "offset=%u",
                           static_cast<unsigned long long>(e.addr),
                           static_cast<unsigned long long>(e.storeValue),
                           e.offset);
      case EntryKind::ReorderedAtomic:
        return sim::strfmt("ReorderedAtomic addr=0x%llx old=%llu new=%llu "
                           "offset=%u",
                           static_cast<unsigned long long>(e.addr),
                           static_cast<unsigned long long>(e.loadValue),
                           static_cast<unsigned long long>(e.storeValue),
                           e.offset);
      case EntryKind::PatchedStore:
        return sim::strfmt("PatchedStore    addr=0x%llx value=%llu",
                           static_cast<unsigned long long>(e.addr),
                           static_cast<unsigned long long>(e.storeValue));
      case EntryKind::DummyStore:
      case EntryKind::DummyAtomic:
        break;
    }
    return toString(e.kind);
}

std::uint32_t
LogEntry::sizeBits() const
{
    switch (kind) {
      case EntryKind::InorderBlock:
        return bits::kTypeTag + bits::kBlockSize;
      case EntryKind::ReorderedLoad:
        return bits::kTypeTag + bits::kValue;
      case EntryKind::ReorderedStore:
        return bits::kTypeTag + bits::kAddress + bits::kValue +
               bits::kOffset;
      case EntryKind::ReorderedAtomic:
        return bits::kTypeTag + bits::kAddress + 2 * bits::kValue +
               bits::kOffset;
      case EntryKind::PatchedStore:
        return bits::kTypeTag + bits::kAddress + bits::kValue;
      case EntryKind::DummyStore:
        return bits::kTypeTag;
      case EntryKind::DummyAtomic:
        return bits::kTypeTag + bits::kValue;
    }
    return 0;
}

std::uint64_t
IntervalRecord::sizeBits() const
{
    std::uint64_t n =
        bits::kTypeTag + bits::kCisn + bits::kTimestamp; // the frame
    if (!predecessors.empty()) {
        n += bits::kDepCount +
             predecessors.size() * (bits::kDepCore + bits::kDepIsn);
    }
    for (const auto &e : entries)
        n += e.sizeBits();
    return n;
}

std::uint64_t
CoreLog::sizeBits() const
{
    std::uint64_t n = 0;
    for (const auto &iv : intervals)
        n += iv.sizeBits();
    return n;
}

void
LogStats::add(const IntervalRecord &iv)
{
    ++intervals;
    for (const auto &e : iv.entries) {
        switch (e.kind) {
          case EntryKind::InorderBlock:
            ++inorderBlocks;
            inorderInstructions += e.blockSize;
            break;
          case EntryKind::ReorderedLoad:
            ++reorderedLoads;
            break;
          case EntryKind::ReorderedStore:
            ++reorderedStores;
            break;
          case EntryKind::ReorderedAtomic:
            ++reorderedAtomics;
            break;
          default:
            break;
        }
    }
    totalBits += iv.sizeBits();
}

void
LogStats::accumulate(const CoreLog &log)
{
    for (const auto &iv : log.intervals)
        add(iv);
}

LogStats &
LogStats::operator+=(const LogStats &o)
{
    intervals += o.intervals;
    inorderBlocks += o.inorderBlocks;
    inorderInstructions += o.inorderInstructions;
    reorderedLoads += o.reorderedLoads;
    reorderedStores += o.reorderedStores;
    reorderedAtomics += o.reorderedAtomics;
    totalBits += o.totalBits;
    return *this;
}

std::string
replayInvariantViolation(const std::vector<CoreLog> &logs,
                         const std::vector<CoreReplaySummary> *summary)
{
    RR_ASSERT(!summary || summary->size() == logs.size(),
              "a Summary lists %zu cores for %zu logs",
              summary ? summary->size() : 0, logs.size());
    for (std::size_t c = 0; c < logs.size(); ++c) {
        const auto &intervals = logs[c].intervals;
        // The instructions this core's log replays, saturating: a
        // corrupt block size can be anything up to 2^64 - 1.
        std::uint64_t instructions = 0;
        for (std::size_t i = 0; i < intervals.size(); ++i) {
            const IntervalRecord &iv = intervals[i];
            const auto violation = [&](const std::string &what) {
                return sim::strfmt("core %zu interval %zu (timestamp %llu): ",
                                   c, i,
                                   static_cast<unsigned long long>(
                                       iv.timestamp)) +
                       what;
            };
            if (i > 0 && iv.timestamp <= intervals[i - 1].timestamp)
                return violation(sim::strfmt(
                    "timestamp does not follow the previous interval's "
                    "%llu",
                    static_cast<unsigned long long>(
                        intervals[i - 1].timestamp)));
            for (const LogEntry &e : iv.entries) {
                if ((e.kind == EntryKind::ReorderedStore ||
                     e.kind == EntryKind::ReorderedAtomic) &&
                    (e.offset == 0 || e.offset > i))
                    return violation(
                        sim::strfmt("%s offset %u is outside [1, %zu]",
                                    toString(e.kind), e.offset, i));
                const std::uint64_t n =
                    e.kind == EntryKind::InorderBlock ? e.blockSize
                    : e.kind == EntryKind::PatchedStore ? 0
                                                        : 1;
                instructions = std::min(instructions, ~n) + n;
            }
            for (const IntervalDep &d : iv.predecessors) {
                const bool exists =
                    d.core < logs.size() &&
                    d.isn < logs[d.core].intervals.size();
                if (exists &&
                    logs[d.core].intervals[d.isn].timestamp < iv.timestamp)
                    continue;
                return violation(sim::strfmt(
                    "dependency edge names core %u interval %llu, which %s",
                    d.core, static_cast<unsigned long long>(d.isn),
                    exists ? "does not precede it" : "the log lacks"));
            }
        }
        if (!summary)
            continue;
        const CoreReplaySummary &want = (*summary)[c];
        if (instructions != want.retiredInstructions ||
            intervals.size() != want.intervals)
            return sim::strfmt(
                "core %zu's log replays %llu instructions in %zu "
                "intervals; its Summary records %llu in %llu",
                c, static_cast<unsigned long long>(instructions),
                intervals.size(),
                static_cast<unsigned long long>(want.retiredInstructions),
                static_cast<unsigned long long>(want.intervals));
    }
    return {};
}

PackedLog
pack(const CoreLog &log)
{
    BitWriter w;
    // Stream header: one bit selecting the frame layout (plain
    // QuickRec-style frames, or frames carrying explicit dependency
    // edges for parallel replay).
    const bool with_deps = hasDependencies(log);
    w.write(with_deps ? 1 : 0, 1);
    for (const auto &iv : log.intervals) {
        for (const auto &e : iv.entries) {
            w.write(static_cast<std::uint64_t>(e.kind), bits::kTypeTag);
            switch (e.kind) {
              case EntryKind::InorderBlock:
                w.write(e.blockSize, bits::kBlockSize);
                break;
              case EntryKind::ReorderedLoad:
                w.write(e.loadValue, bits::kValue);
                break;
              case EntryKind::ReorderedStore:
                w.write(e.addr, bits::kAddress);
                w.write(e.storeValue, bits::kValue);
                w.write(e.offset, bits::kOffset);
                break;
              case EntryKind::ReorderedAtomic:
                w.write(e.addr, bits::kAddress);
                w.write(e.loadValue, bits::kValue);
                w.write(e.storeValue, bits::kValue);
                w.write(e.offset, bits::kOffset);
                break;
              case EntryKind::PatchedStore:
                w.write(e.addr, bits::kAddress);
                w.write(e.storeValue, bits::kValue);
                break;
              case EntryKind::DummyStore:
                break;
              case EntryKind::DummyAtomic:
                w.write(e.loadValue, bits::kValue);
                break;
            }
        }
        w.write(kFrameTag, bits::kTypeTag);
        w.write(iv.cisn & 0xffff, bits::kCisn);
        w.write(iv.timestamp, bits::kTimestamp);
        if (with_deps) {
            RR_ASSERT(iv.predecessors.size() <
                          (1ULL << bits::kDepCount),
                      "too many interval predecessors to pack");
            w.write(iv.predecessors.size(), bits::kDepCount);
            for (const auto &d : iv.predecessors) {
                w.write(d.core, bits::kDepCore);
                w.write(d.isn & 0xffffffffULL, bits::kDepIsn);
            }
        }
    }
    return PackedLog{w.bytes(), w.bitCount()};
}

CoreLog
unpack(const PackedLog &packed)
{
    CoreLog log;
    BitReader r(packed.bytes, packed.bitCount);
    if (r.atEnd())
        return log;
    const bool with_deps = r.read(1) != 0;
    IntervalRecord current;
    while (!r.atEnd()) {
        const std::uint64_t tag = r.read(bits::kTypeTag);
        if (tag == kFrameTag) {
            const std::uint64_t cisn16 = r.read(bits::kCisn);
            current.timestamp = r.read(bits::kTimestamp);
            if (with_deps) {
                const std::uint64_t n = r.read(bits::kDepCount);
                for (std::uint64_t i = 0; i < n; ++i) {
                    IntervalDep d;
                    d.core = static_cast<sim::CoreId>(
                        r.read(bits::kDepCore));
                    d.isn = r.read(bits::kDepIsn);
                    current.predecessors.push_back(d);
                }
            }
            // CISNs are consecutive from zero; reconstruct full width.
            current.cisn = log.intervals.size();
            RR_ASSERT((current.cisn & 0xffff) == cisn16,
                      "CISN sequence mismatch in packed log");
            log.intervals.push_back(std::move(current));
            current = IntervalRecord{};
            continue;
        }
        LogEntry e;
        e.kind = static_cast<EntryKind>(tag);
        switch (e.kind) {
          case EntryKind::InorderBlock:
            e.blockSize = r.read(bits::kBlockSize);
            break;
          case EntryKind::ReorderedLoad:
            e.loadValue = r.read(bits::kValue);
            break;
          case EntryKind::ReorderedStore:
            e.addr = r.read(bits::kAddress);
            e.storeValue = r.read(bits::kValue);
            e.offset = static_cast<std::uint32_t>(r.read(bits::kOffset));
            break;
          case EntryKind::ReorderedAtomic:
            e.addr = r.read(bits::kAddress);
            e.loadValue = r.read(bits::kValue);
            e.storeValue = r.read(bits::kValue);
            e.offset = static_cast<std::uint32_t>(r.read(bits::kOffset));
            break;
          case EntryKind::PatchedStore:
            e.addr = r.read(bits::kAddress);
            e.storeValue = r.read(bits::kValue);
            break;
          case EntryKind::DummyStore:
            break;
          case EntryKind::DummyAtomic:
            e.loadValue = r.read(bits::kValue);
            break;
        }
        current.entries.push_back(e);
    }
    RR_ASSERT(current.entries.empty(),
              "packed log ends mid-interval (missing frame)");
    return log;
}

} // namespace rr::rnr
