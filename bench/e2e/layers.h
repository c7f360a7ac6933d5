/**
 * @file
 * The traced run's layer-driven pipeline: the benchmark drives a
 * request through each layer's public entry points itself (graph
 * build, RunLfaStage / RunDlsaStage under the buffer-allocation loop,
 * GenerateIr, GenerateInstructions, ExecuteProgram,
 * ValidateMemoryTiming) with a span around every call, then replays a
 * seeded chain of LFA and DLSA mutations on the schedule it found
 * (MutateLfaEncoding, EvalContext::Parse, the EvalContext evaluate
 * calls) to time single candidates.
 */
#ifndef SOMA_BENCH_E2E_LAYERS_H
#define SOMA_BENCH_E2E_LAYERS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "api/registry.h"
#include "api/request.h"
#include "checks.h"
#include "notation/encoding.h"
#include "notation/parser.h"
#include "search/warm_state.h"
#include "spans.h"

namespace soma {
namespace e2e {

/** Counts gathered over the layer-driven round and the replay. */
struct LayerCounters {
    std::uint64_t evaluated = 0;     ///< SA candidates, both stages
    std::uint64_t accepted = 0;
    std::uint64_t instructions = 0;  ///< generated instruction stream
    std::uint64_t transactions = 0;  ///< banked replay bursts
    std::uint64_t dirty_groups = 0;  ///< replay LFA parses
    std::uint64_t parsed_groups = 0;
    std::uint64_t memo_lookups = 0;  ///< tiles of from-scratch parses
    std::uint64_t memo_computes = 0; ///< of those, costed anew
    std::uint64_t windowed_runs = 0; ///< replay DLSA delta evaluations
    std::uint64_t splices = 0;
};

/** What the layer-driven pipeline found for one request. */
struct LayerResult {
    bool valid = false;
    std::shared_ptr<const Graph> graph;
    HardwareConfig hw;
    LfaEncoding lfa;
    ParsedSchedule parsed;
    DlsaEncoding dlsa;
    EvalReport report;
};

/**
 * Runs @p request through the layer entry points with spans on @p log.
 * @p warm carries tilings and tile costs across requests over one
 * (model, hardware preset), the way the service's warm-state cache
 * does.
 */
LayerResult RunLayers(const ScheduleRequest &request, int request_index,
                      const ModelRegistry &models,
                      const HardwareRegistry &hardware,
                      std::map<std::string, SearchWarmState> *warm,
                      SpanLog *log, LayerCounters *counters);

/**
 * Replays a seeded mutation chain on @p found. Delta evaluations are
 * checked against a from-scratch evaluation of the same candidate.
 */
void ReplayMutations(const LayerResult &found, int request_index,
                     std::uint64_t seed, SpanLog *log,
                     LayerCounters *counters, CheckLog *checks);

}  // namespace e2e
}  // namespace soma

#endif  // SOMA_BENCH_E2E_LAYERS_H
