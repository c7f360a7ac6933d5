/**
 * @file
 * The benchmark's workloads: each is a fixed list of ScheduleRequests
 * (one round) generated from the run's seed: request i searches with
 * a splitmix64 mix of (seed, i). Every request of every workload is
 * feasible, so no operation is expected to fail.
 */
#ifndef SOMA_BENCH_E2E_WORKLOADS_H
#define SOMA_BENCH_E2E_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/request.h"

namespace soma {
namespace e2e {

struct Workload {
    std::string name;
    /** One round: each request is sent once, one at a time. */
    std::vector<ScheduleRequest> requests;
    /** Result-cache-served replays of the whole round after its cold
     *  pass (enough for >= 8192 timed cache hits per round). */
    int cached_passes = 1;
};

/** Builds workload @p name ("llm-prefill-cloud", "edge-zoo-default"
 *  or "dse-sweep") for @p seed; every search uses @p threads driver
 *  threads. False (with @p err) for an unknown name. */
bool MakeWorkload(const std::string &name, std::uint64_t seed, int threads,
                  Workload *out, std::string *err);

/** The request's hardware point: registry preset plus its GBUF and
 *  bandwidth overrides, resolved the way a user states them. */
bool HardwareFor(const ScheduleRequest &request,
                 const HardwareRegistry &registry, HardwareConfig *out,
                 std::string *err);

}  // namespace e2e
}  // namespace soma

#endif  // SOMA_BENCH_E2E_WORKLOADS_H
