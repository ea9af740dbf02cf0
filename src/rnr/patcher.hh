/**
 * @file
 * The log "patching" step (paper Section 3.3.2): every ReorderedStore
 * (and ReorderedAtomic) entry is moved from the interval where the store
 * was counted to the end of the interval where it performed — `offset`
 * intervals earlier — as a PatchedStore; a Dummy entry remains at the
 * counting site so the replayer skips the store instruction there. The
 * paper allows this as an off-line pass or on-the-fly during log
 * reading; we implement it as an off-line pass over the structured log.
 */

#ifndef RR_RNR_PATCHER_HH
#define RR_RNR_PATCHER_HH

#include "rnr/log.hh"

namespace rr::rnr
{

/** True if @p log contains no entries that still need patching. */
bool isPatched(const CoreLog &log);

/**
 * Produce the replay-ready form of a recorded core log. Rewrites
 * @p recorded in place: callers that are done with the recorded form
 * std::move it in and pay no copy.
 */
CoreLog patch(CoreLog recorded);

} // namespace rr::rnr

#endif // RR_RNR_PATCHER_HH
