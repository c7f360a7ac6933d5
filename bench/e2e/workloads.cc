#include "workloads.h"

namespace soma {
namespace e2e {

namespace {

/** Cache hits timed per round. Thousands, so that each round's hits
 *  span a stretch of time rather than a burst of a few milliseconds:
 *  the host's speed drifts on a scale of seconds. */
constexpr int kMinCachedHitsPerRound = 8192;

/** splitmix64: decorrelated per-request search seeds. */
std::uint64_t
RequestSeed(std::uint64_t seed, std::size_t index)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

ScheduleRequest
BaseRequest(const std::string &model, const std::string &hardware,
            SearchProfile profile, int threads)
{
    ScheduleRequest req;
    req.model = model;
    req.batch = 1;
    req.hardware = hardware;
    req.profile = profile;
    req.threads = threads;
    return req;
}

/**
 * The small models of the edge and DSE workloads. The CNNs of the zoo
 * (resnet50, ires, randwire) are left out while TileCostMemo keys a
 * tile's cost by its size alone: same-size tiles at a feature-map
 * border cost differently (clipped halos), so the first of the search
 * chains to cost a size decides the value, and multi-threaded searches
 * over CNNs return different schedules from run to run (CHANGES.md,
 * FOUND). Transformer graphs have no halos and are unaffected.
 */
const std::vector<std::string> &
SmallZoo()
{
    static const std::vector<std::string> zoo = {"transformer-large",
                                                 "gpt2s-decode"};
    return zoo;
}

}  // namespace

bool
MakeWorkload(const std::string &name, std::uint64_t seed, int threads,
             Workload *out, std::string *err)
{
    Workload wl;
    wl.name = name;
    if (name == "llm-prefill-cloud") {
        // The largest graph of the zoo: search is parse-bound here.
        wl.requests.push_back(BaseRequest("gpt2xl-prefill", "cloud",
                                          SearchProfile::kQuick, threads));
    } else if (name == "edge-zoo-default") {
        // Small graphs under edge buffer pressure, with the compiler
        // artifacts and the banked DRAM replay on every request.
        for (const std::string &model : SmallZoo()) {
            ScheduleRequest req = BaseRequest(
                model, "edge", SearchProfile::kDefault, threads);
            req.artifacts.ir = true;
            req.artifacts.instructions = true;
            req.validate_memory = true;
            wl.requests.push_back(std::move(req));
        }
    } else if (name == "dse-sweep") {
        // A design-space grid served by one service: many short
        // requests that share graphs and warm state.
        for (const std::string &model : SmallZoo()) {
            for (int gbuf_mb : {8, 16, 32}) {
                for (double gbps : {8.0, 16.0, 32.0}) {
                    ScheduleRequest req = BaseRequest(
                        model, "edge", SearchProfile::kQuick, threads);
                    req.gbuf_bytes = static_cast<Bytes>(gbuf_mb) << 20;
                    req.dram_gbps = gbps;
                    wl.requests.push_back(std::move(req));
                }
            }
        }
    } else {
        *err = "unknown workload \"" + name +
               "\" (known: llm-prefill-cloud, edge-zoo-default, dse-sweep)";
        return false;
    }
    const int n = static_cast<int>(wl.requests.size());
    for (int i = 0; i < n; ++i)
        wl.requests[i].seed = RequestSeed(seed, static_cast<std::size_t>(i));
    wl.cached_passes = (kMinCachedHitsPerRound + n - 1) / n;
    *out = std::move(wl);
    return true;
}

bool
HardwareFor(const ScheduleRequest &request, const HardwareRegistry &registry,
            HardwareConfig *out, std::string *err)
{
    if (!registry.Make(request.hardware, out, err)) return false;
    if (request.gbuf_bytes > 0) out->gbuf_bytes = request.gbuf_bytes;
    if (request.dram_gbps > 0) out->dram_gbps = request.dram_gbps;
    return true;
}

}  // namespace e2e
}  // namespace soma
