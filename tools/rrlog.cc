/**
 * @file
 * rrlog — inspection tool for persistent RelaxReplay logs (.rrlog).
 *
 *   rrlog info FILE
 *       Header, metadata, chunk layout and recording summary.
 *   rrlog stats FILE [--stats-json OUT]
 *       Aggregate and per-core LogStats plus entry/interval histograms
 *       (sim::StatSet; exportable as JSON).
 *   rrlog dump FILE [--core N] [--max N]
 *       Human-readable interval listing (default: first 8 intervals of
 *       every core).
 *   rrlog verify FILE
 *       Full integrity walk: CRCs, framing, decode, summary
 *       cross-checks. Exit 0 only when the file is sound; every
 *       problem is reported with its file offset and chunk id.
 *   rrlog diff FILE1 FILE2
 *       First divergent interval between two recordings (metadata,
 *       per-core interval streams, summaries).
 *   rrlog repair IN OUT
 *       Salvage the longest consistent prefix of a torn or corrupt
 *       file (e.g. the .tmp left by a crashed recorder) and write it
 *       to OUT as a structurally valid, partial-flagged .rrlog that
 *       `rrsim replay --allow-partial` accepts.
 *
 * Exit codes: 0 success, 1 corrupt/differing file, 2 usage error,
 * 3 operating-system I/O failure.
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "rnr/logstore.hh"
#include "sim/config.hh"
#include "sim/stats.hh"

using namespace rr;

namespace
{

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: rrlog <info|stats|dump|verify|diff|repair> FILE [FILE2] "
        "[options]\n"
        "  --core N         dump: restrict to one core\n"
        "  --max N          dump: intervals per core (default 8)\n"
        "  --stats-json F   stats: export the StatSets as JSON\n"
        "  --ingest MODE    read path: auto (default; mmap with "
        "streamed fallback),\n"
        "                   mmap (zero-copy, required) or stream\n"
        "repair salvages FILE's consistent prefix into FILE2.\n"
        "exit codes: 0 ok, 1 corrupt/differs, 2 usage, 3 I/O error.\n");
    std::exit(2);
}

struct Options
{
    std::string command;
    std::vector<std::string> files;
    std::optional<std::uint64_t> core; ///< --core; unset = every core
    std::uint64_t max = 8;
    std::string statsJson;
    rnr::IngestMode ingest = rnr::IngestMode::Auto;
};

/** A digits-only 64-bit count; anything else is a usage error. */
std::uint64_t
parseNum(const std::string &text)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        usage();
    errno = 0;
    const std::uint64_t v = std::strtoull(text.c_str(), nullptr, 10);
    if (errno == ERANGE)
        usage();
    return v;
}

Options
parse(int argc, char **argv)
{
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
            args.push_back(arg.substr(0, eq));
            args.push_back(arg.substr(eq + 1));
        } else {
            args.push_back(arg);
        }
    }
    Options o;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto next = [&]() -> std::string {
            if (++i >= args.size())
                usage();
            return args[i];
        };
        if (arg == "--core")
            o.core = parseNum(next());
        else if (arg == "--max")
            o.max = parseNum(next());
        else if (arg == "--stats-json")
            o.statsJson = next();
        else if (arg == "--ingest") {
            const std::string m = next();
            if (m == "auto")
                o.ingest = rnr::IngestMode::Auto;
            else if (m == "mmap")
                o.ingest = rnr::IngestMode::Mmap;
            else if (m == "stream")
                o.ingest = rnr::IngestMode::Streamed;
            else
                usage();
        } else if (arg.rfind("--", 0) == 0)
            usage();
        else if (o.command.empty())
            o.command = arg;
        else
            o.files.push_back(arg);
    }
    const std::size_t want =
        o.command == "diff" || o.command == "repair" ? 2 : 1;
    if (o.command.empty() || o.files.size() != want)
        usage();
    return o;
}

void
printEntry(const rnr::LogEntry &e)
{
    switch (e.kind) {
      case rnr::EntryKind::InorderBlock:
        std::printf("    InorderBlock    %llu instructions\n",
                    (unsigned long long)e.blockSize);
        break;
      case rnr::EntryKind::ReorderedLoad:
        std::printf("    ReorderedLoad   value=%llu\n",
                    (unsigned long long)e.loadValue);
        break;
      case rnr::EntryKind::ReorderedStore:
        std::printf("    ReorderedStore  addr=0x%llx value=%llu "
                    "offset=%u\n",
                    (unsigned long long)e.addr,
                    (unsigned long long)e.storeValue, e.offset);
        break;
      case rnr::EntryKind::ReorderedAtomic:
        std::printf("    ReorderedAtomic addr=0x%llx old=%llu new=%llu "
                    "offset=%u\n",
                    (unsigned long long)e.addr,
                    (unsigned long long)e.loadValue,
                    (unsigned long long)e.storeValue, e.offset);
        break;
      case rnr::EntryKind::PatchedStore:
        std::printf("    PatchedStore    addr=0x%llx value=%llu\n",
                    (unsigned long long)e.addr,
                    (unsigned long long)e.storeValue);
        break;
      default:
        std::printf("    %s\n", rnr::toString(e.kind));
        break;
    }
}

void
printMeta(const rnr::LogReader &reader)
{
    const rnr::RecordingMeta &m = reader.meta();
    std::printf("format          v%u, fingerprint %016llx\n",
                reader.version(),
                (unsigned long long)reader.fingerprint());
    std::printf("kernel          %s (scale %llu, intensity %llu, "
                "seed %llu)\n",
                m.kernel.c_str(), (unsigned long long)m.scale,
                (unsigned long long)m.intensity,
                (unsigned long long)m.workloadSeed);
    std::printf("machine         %u cores, seed %llu, coherence %s\n",
                m.cores, (unsigned long long)m.machineSeed,
                sim::toString(m.coherence));
    std::printf("recorder        RelaxReplay_%s, interval cap %s%s\n",
                sim::toString(m.mode),
                m.intervalCap ? std::to_string(m.intervalCap).c_str()
                              : "INF",
                m.deps ? ", dependency edges" : "");
}

int
cmdInfo(const Options &o)
{
    rnr::LogReader reader(o.files[0], o.ingest);
    printMeta(reader);
    const rnr::LogFileInfo info = reader.info();
    std::printf("file            %llu bytes, %llu chunks "
                "(%llu data), clean end: %s\n",
                (unsigned long long)info.fileBytes,
                (unsigned long long)info.chunks,
                (unsigned long long)info.dataChunks,
                info.cleanEnd ? "yes" : "NO (truncated)");
    std::printf("intervals       %llu across %u cores "
                "(%llu payload bits on disk)\n",
                (unsigned long long)info.intervals, info.coreCount,
                (unsigned long long)info.payloadBits);
    if (info.hasSummary) {
        const auto &s = info.summary;
        std::printf("recorded run    %llu instructions, %llu cycles, "
                    "memory fingerprint %016llx\n",
                    (unsigned long long)s.totalInstructions,
                    (unsigned long long)s.cycles,
                    (unsigned long long)s.memoryFingerprint);
        for (std::size_t c = 0; c < s.cores.size(); ++c)
            std::printf("  core %-2zu       %llu intervals, "
                        "%llu instructions, %llu loads, "
                        "load hash %016llx\n",
                        c, (unsigned long long)s.cores[c].intervals,
                        (unsigned long long)
                            s.cores[c].retiredInstructions,
                        (unsigned long long)s.cores[c].retiredLoads,
                        (unsigned long long)s.cores[c].loadValueHash);
    } else {
        std::printf("recorded run    (no summary chunk)\n");
    }
    return 0;
}

int
cmdStats(const Options &o)
{
    rnr::LogReader reader(o.files[0], o.ingest);
    std::vector<rnr::LogStats> per_core(reader.coreCount());
    std::vector<sim::StatSet> core_sets;
    for (std::uint32_t c = 0; c < reader.coreCount(); ++c)
        core_sets.emplace_back("rrlog.core" + std::to_string(c));
    sim::StatSet total("rrlog");
    sim::Histogram &entries_h =
        total.histogram("entries_per_interval", 4, 16);
    sim::Histogram &bits_h = total.histogram("interval_bits", 64, 16);

    // One streaming pass: per-interval stats and on-disk payload bits
    // (counted once per chunk — all of a chunk's intervals share a
    // ChunkView) together, so the file is decoded once and peak memory
    // stays one chunk regardless of file size.
    std::uint64_t disk_payload_bits = 0;
    std::uint64_t last_chunk_seq = 0; // the meta chunk; never data
    reader.walkIntervals([&](sim::CoreId core,
                             const rnr::IntervalRecord &iv,
                             const rnr::LogReader::ChunkView &chunk) {
        if (chunk.seq != last_chunk_seq) {
            last_chunk_seq = chunk.seq;
            disk_payload_bits += chunk.payloadBits;
        }
        per_core[core].add(iv);
        entries_h.sample(iv.entries.size());
        bits_h.sample(iv.sizeBits());
        core_sets[core].counter("intervals")++;
        core_sets[core].counter("entries") += iv.entries.size();
        core_sets[core].counter("dependency_edges") +=
            iv.predecessors.size();
        return true;
    });

    rnr::LogStats sum;
    std::printf("%-8s%12s%12s%12s%12s%12s%14s\n", "core", "intervals",
                "inorder", "re-loads", "re-stores", "re-atomics",
                "model bits");
    for (std::uint32_t c = 0; c < reader.coreCount(); ++c) {
        const auto &s = per_core[c];
        std::printf("%-8u%12llu%12llu%12llu%12llu%12llu%14llu\n", c,
                    (unsigned long long)s.intervals,
                    (unsigned long long)s.inorderInstructions,
                    (unsigned long long)s.reorderedLoads,
                    (unsigned long long)s.reorderedStores,
                    (unsigned long long)s.reorderedAtomics,
                    (unsigned long long)s.totalBits);
        sum += s;
        total.counter("intervals") += s.intervals;
        total.counter("reordered") += s.reordered();
        total.counter("model_bits") += s.totalBits;
    }
    std::printf("%-8s%12llu%12llu%12llu%12llu%12llu%14llu\n", "total",
                (unsigned long long)sum.intervals,
                (unsigned long long)sum.inorderInstructions,
                (unsigned long long)sum.reorderedLoads,
                (unsigned long long)sum.reorderedStores,
                (unsigned long long)sum.reorderedAtomics,
                (unsigned long long)sum.totalBits);
    std::printf("\non disk         %llu bytes total, %llu data payload "
                "bits (%.1f%% of the %llu-bit packed model)\n",
                (unsigned long long)reader.fileBytes(),
                (unsigned long long)disk_payload_bits,
                sum.totalBits
                    ? 100.0 * static_cast<double>(disk_payload_bits) /
                          static_cast<double>(sum.totalBits)
                    : 0.0,
                (unsigned long long)sum.totalBits);
    total.counter("disk_bytes") += reader.fileBytes();
    total.counter("disk_payload_bits") += disk_payload_bits;

    total.print(std::cout);
    if (!o.statsJson.empty()) {
        std::ofstream out(o.statsJson);
        if (!out) {
            std::fprintf(stderr, "cannot open %s\n",
                         o.statsJson.c_str());
            return 1;
        }
        std::vector<const sim::StatSet *> sets{&total};
        for (const auto &cs : core_sets)
            sets.push_back(&cs);
        sim::writeStatsJson(out, sets);
        std::printf("stats saved     %s\n", o.statsJson.c_str());
    }
    return 0;
}

int
cmdDump(const Options &o)
{
    rnr::LogReader reader(o.files[0], o.ingest);
    printMeta(reader);
    std::vector<std::uint64_t> shown(reader.coreCount(), 0);
    // Early stop: once every requested core is past --max, nothing
    // later in the file can reach the output, so stop the walk — the
    // remaining chunks are neither read nor decoded. Dumping the head
    // of a multi-gigabyte log touches only its first chunks.
    const bool walked_all = reader.walkIntervals(
        [&](sim::CoreId core, const rnr::IntervalRecord &iv,
            const rnr::LogReader::ChunkView &chunk) {
            if (o.core && core != *o.core)
                return true;
            if (shown[core]++ < o.max) {
                std::printf("core %u interval %llu (ts %llu, chunk "
                            "%llu)",
                            core, (unsigned long long)iv.cisn,
                            (unsigned long long)iv.timestamp,
                            (unsigned long long)chunk.seq);
                for (const auto &d : iv.predecessors)
                    std::printf(" [after core%u#%llu]", d.core,
                                (unsigned long long)d.isn);
                std::printf(":\n");
                for (const auto &e : iv.entries)
                    printEntry(e);
            }
            for (std::uint32_t c = 0; c < reader.coreCount(); ++c) {
                if (o.core && c != *o.core)
                    continue;
                if (shown[c] <= o.max)
                    return true; // this core may still print
            }
            return false;
        });
    for (std::uint32_t c = 0; c < reader.coreCount(); ++c) {
        if (o.core && c != *o.core)
            continue;
        if (!walked_all && shown[c] > o.max)
            std::printf("core %u: ... more intervals (not decoded)\n",
                        c);
        else if (shown[c] > o.max)
            std::printf("core %u: ... %llu more intervals\n", c,
                        (unsigned long long)(shown[c] - o.max));
    }
    return 0;
}

int
cmdVerify(const Options &o)
{
    rnr::LogReader reader(o.files[0], o.ingest);
    const std::vector<rnr::VerifyIssue> issues = reader.verify();
    if (issues.empty()) {
        std::printf("%s: OK (fingerprint %016llx, %u cores)\n",
                    o.files[0].c_str(),
                    (unsigned long long)reader.fingerprint(),
                    reader.coreCount());
        return 0;
    }
    for (const auto &issue : issues) {
        if (issue.chunkSeq >= 0)
            std::fprintf(stderr,
                         "%s: offset %llu chunk %lld: %s\n",
                         o.files[0].c_str(),
                         (unsigned long long)issue.fileOffset,
                         (long long)issue.chunkSeq,
                         issue.message.c_str());
        else
            std::fprintf(stderr, "%s: offset %llu: %s\n",
                         o.files[0].c_str(),
                         (unsigned long long)issue.fileOffset,
                         issue.message.c_str());
    }
    std::fprintf(stderr, "%s: %zu problem%s found\n", o.files[0].c_str(),
                 issues.size(), issues.size() == 1 ? "" : "s");
    return 1;
}

/** 1 for a corrupt/invalid file, 3 for an OS-level I/O failure. */
int
exitCodeFor(const rnr::LogStoreError &e)
{
    return e.kind() == rnr::LogErrorKind::Io ? 3 : 1;
}

rnr::LogReader
open(const std::string &path, rnr::IngestMode mode)
{
    try {
        return rnr::LogReader(path, mode);
    } catch (const rnr::LogStoreError &e) {
        std::fprintf(stderr, "rrlog: %s: %s\n", path.c_str(), e.what());
        std::exit(exitCodeFor(e));
    }
}

int
cmdRepair(const Options &o)
{
    const std::string &src = o.files[0];
    const std::string &dst = o.files[1];
    rnr::LogReader reader(src, o.ingest);
    rnr::RecoveryResult rec = reader.recoverPrefix();
    for (const auto &issue : rec.issues)
        std::fprintf(stderr, "%s: offset %llu: %s\n", src.c_str(),
                     (unsigned long long)issue.fileOffset,
                     issue.message.c_str());

    const std::uint64_t cut =
        rnr::consistentCut(rec.logs, rec.coreTruncated);
    std::uint64_t kept = 0;
    for (const auto &log : rec.logs)
        kept += log.intervals.size();
    std::printf("salvaged        %llu intervals from %llu data chunks "
                "(%llu chunks dropped)\n",
                (unsigned long long)rec.salvagedIntervals,
                (unsigned long long)rec.salvagedChunks,
                (unsigned long long)rec.droppedChunks);
    std::printf("consistent cut  ts %llu; %llu intervals replayable\n",
                (unsigned long long)cut, (unsigned long long)kept);

    rnr::WriterOptions wopts;
    wopts.headerFlags = rnr::fmt::kFlagPartial;
    rnr::LogWriter writer(dst, reader.meta(), wopts);
    for (sim::CoreId c = 0; c < rec.logs.size(); ++c)
        for (const auto &iv : rec.logs[c].intervals)
            writer.append(c, iv);
    // Preserve the original full-run summary when it survived: it is
    // reference information (the partial flag exempts it from interval
    // count cross-checks) and lets `rrlog info` show the recorded run.
    writer.finishPartial(rec.hasSummary ? &rec.summary : nullptr);
    std::printf("repaired file   %s (%llu bytes, partial-flagged%s)\n",
                dst.c_str(), (unsigned long long)writer.bytesWritten(),
                rec.hasSummary ? ", original summary preserved" : "");
    return 0;
}

int
cmdDiff(const Options &o)
{
    rnr::LogReader a(open(o.files[0], o.ingest));
    rnr::LogReader b(open(o.files[1], o.ingest));
    if (a.fingerprint() != b.fingerprint()) {
        std::printf("metadata differs: fingerprints %016llx vs %016llx "
                    "(%s/%u cores vs %s/%u cores)\n",
                    (unsigned long long)a.fingerprint(),
                    (unsigned long long)b.fingerprint(),
                    a.meta().kernel.c_str(), a.meta().cores,
                    b.meta().kernel.c_str(), b.meta().cores);
        return 1;
    }
    const auto logs_a = a.readAll();
    const auto logs_b = b.readAll();
    std::uint64_t intervals = 0;
    for (std::uint32_t c = 0; c < a.coreCount(); ++c) {
        const auto &ia = logs_a[c].intervals;
        const auto &ib = logs_b[c].intervals;
        const std::size_t n = std::min(ia.size(), ib.size());
        for (std::size_t i = 0; i < n; ++i) {
            const bool same = ia[i].entries == ib[i].entries &&
                              ia[i].cisn == ib[i].cisn &&
                              ia[i].timestamp == ib[i].timestamp &&
                              ia[i].predecessors == ib[i].predecessors;
            if (same)
                continue;
            std::printf("first divergence: core %u interval %zu\n", c,
                        i);
            std::printf("--- %s (ts %llu, %zu entries)\n",
                        o.files[0].c_str(),
                        (unsigned long long)ia[i].timestamp,
                        ia[i].entries.size());
            for (const auto &e : ia[i].entries)
                printEntry(e);
            std::printf("+++ %s (ts %llu, %zu entries)\n",
                        o.files[1].c_str(),
                        (unsigned long long)ib[i].timestamp,
                        ib[i].entries.size());
            for (const auto &e : ib[i].entries)
                printEntry(e);
            return 1;
        }
        if (ia.size() != ib.size()) {
            std::printf("core %u: interval counts differ "
                        "(%zu vs %zu; first %zu identical)\n",
                        c, ia.size(), ib.size(), n);
            return 1;
        }
        intervals += ia.size();
    }
    std::printf("identical: %llu intervals across %u cores\n",
                (unsigned long long)intervals, a.coreCount());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    try {
        if (o.command == "info")
            return cmdInfo(o);
        if (o.command == "stats")
            return cmdStats(o);
        if (o.command == "dump")
            return cmdDump(o);
        if (o.command == "verify")
            return cmdVerify(o);
        if (o.command == "diff")
            return cmdDiff(o);
        if (o.command == "repair")
            return cmdRepair(o);
    } catch (const rnr::LogStoreError &e) {
        std::fprintf(stderr, "rrlog: %s: %s\n",
                     o.files.empty() ? "?" : o.files[0].c_str(),
                     e.what());
        return exitCodeFor(e);
    }
    usage();
}
