#include "rnr/patcher.hh"

#include "sim/logging.hh"

namespace rr::rnr
{

bool
isPatched(const CoreLog &log)
{
    for (const auto &iv : log.intervals) {
        for (const auto &e : iv.entries) {
            if (e.kind == EntryKind::ReorderedStore ||
                e.kind == EntryKind::ReorderedAtomic)
                return false;
        }
    }
    return true;
}

CoreLog
patch(CoreLog recorded)
{
    for (std::size_t i = 0; i < recorded.intervals.size(); ++i) {
        // Patched entries land in an earlier interval's vector (offset
        // > 0), never in the one being walked, so `e` stays valid.
        for (auto &e : recorded.intervals[i].entries) {
            if (e.kind == EntryKind::ReorderedStore) {
                RR_ASSERT(e.offset > 0 && e.offset <= i,
                          "store offset %u escapes the log at interval "
                          "%zu",
                          e.offset, i);
                recorded.intervals[i - e.offset].entries.push_back(
                    LogEntry::patchedStore(e.addr, e.storeValue));
                e = LogEntry::dummyStore();
            } else if (e.kind == EntryKind::ReorderedAtomic) {
                RR_ASSERT(e.offset > 0 && e.offset <= i,
                          "atomic offset %u escapes the log at interval "
                          "%zu",
                          e.offset, i);
                recorded.intervals[i - e.offset].entries.push_back(
                    LogEntry::patchedStore(e.addr, e.storeValue));
                e = LogEntry::dummyAtomic(e.loadValue);
            }
        }
    }
    return recorded;
}

} // namespace rr::rnr
