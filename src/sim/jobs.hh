/**
 * @file
 * The one definition of what `--jobs 0` means. Every surface that
 * accepts a worker count (rrsim, the benches, TaskPool and
 * parallelFor, the parallel replayer and log decoder, the service's
 * executors) resolves it here, so "0 = all host cores" behaves
 * identically everywhere.
 */

#ifndef RR_SIM_JOBS_HH
#define RR_SIM_JOBS_HH

#include <cstdint>
#include <thread>

namespace rr::sim
{

/** Resolve a user-facing job count: 0 means hardware_concurrency(),
 *  and a host that reports 0 cores still yields one worker. */
inline std::uint32_t
resolveJobs(std::uint32_t jobs)
{
    if (jobs != 0)
        return jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1u : static_cast<std::uint32_t>(hw);
}

} // namespace rr::sim

#endif // RR_SIM_JOBS_HH
