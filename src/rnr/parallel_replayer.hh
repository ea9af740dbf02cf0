/**
 * @file
 * Kept only for perfbench/, which names these when it builds its
 * replay engine, until the next benchmark change. They select nothing:
 * replay has one engine, rnr::Replayer (replayer.hh), which fans out
 * over its workers on its own when the logs allow it.
 */

#ifndef RR_RNR_PARALLEL_REPLAYER_HH
#define RR_RNR_PARALLEL_REPLAYER_HH

#include "rnr/replayer.hh"

namespace rr::rnr
{

using ParallelReplayer = Replayer;
using ParallelReplayOptions = ReplayOptions;

} // namespace rr::rnr

#endif // RR_RNR_PARALLEL_REPLAYER_HH
