#include "layers.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "common/rng.h"
#include "compiler/instruction_gen.h"
#include "compiler/ir.h"
#include "compiler/vm.h"
#include "search/dlsa_heuristics.h"
#include "search/dlsa_stage.h"
#include "search/lfa_stage.h"
#include "search/soma.h"
#include "sim/eval_context.h"
#include "sim/evaluator.h"
#include "sim/memory_validation.h"
#include "workloads.h"

namespace soma {
namespace e2e {

namespace {

constexpr int kLfaSteps = 48;
constexpr int kDlsaSteps = 192;
/** Every this many DLSA steps, the candidate is also evaluated from
 *  scratch and compared with the delta path. */
constexpr int kFullEvalEvery = 8;

std::string
CostText(double cost)
{
    std::ostringstream os;
    os.precision(17);
    os << cost;
    return os.str();
}

}  // namespace

LayerResult
RunLayers(const ScheduleRequest &request, int request_index,
          const ModelRegistry &models, const HardwareRegistry &hardware,
          std::map<std::string, SearchWarmState> *warm, SpanLog *log,
          LayerCounters *counters)
{
    SpanScope request_span(log, "bench.request", request_index);
    LayerResult out;
    std::string err;
    {
        SpanScope span(log, "workload.build");
        Graph built;
        if (!models.Build(request.model, request.batch, &built, &err))
            return out;
        out.graph = std::make_shared<const Graph>(std::move(built));
    }
    if (!HardwareFor(request, hardware, &out.hw, &err)) return out;
    const Graph &graph = *out.graph;
    const HardwareConfig &hw = out.hw;

    SearchWarmState &bundle =
        (*warm)[request.model + "/" + std::to_string(request.batch) + "/" +
                request.hardware];
    if (!bundle.tilings) bundle.tilings = std::make_shared<TilingCache>();
    if (!bundle.tile_costs)
        bundle.tile_costs = std::make_shared<TileCostMemo>();
    ScheduleRequest warm_request = request;
    warm_request.warm_state = bundle;
    const SomaOptions opts =
        PropagateSomaOptions(SomaOptionsForRequest(warm_request));

    // The buffer-allocation loop (Sec. V-D), step by step so that each
    // stage gets a span of its own.
    {
        SpanScope alloc_span(log, "search.buffer_alloc");
        Rng rng(opts.seed);
        CoreArrayEvaluator core_eval(graph, hw, opts.lfa.tile_cost_memo);
        double best_cost = std::numeric_limits<double>::infinity();
        Bytes buffer_max = 0;
        int no_improve = 0;
        for (int iter = 0; iter < opts.alloc.max_iterations; ++iter) {
            Bytes budget = hw.gbuf_bytes;
            if (iter > 0) {
                budget = buffer_max -
                         static_cast<Bytes>(std::llround(
                             static_cast<double>(iter) *
                             opts.alloc.shrink_frac *
                             static_cast<double>(buffer_max)));
                if (budget <= 0) break;
            }
            LfaStageResult s1;
            {
                SpanScope span(log, "search.lfa_stage");
                s1 = RunLfaStage(graph, hw, core_eval, budget, opts.lfa, rng);
            }
            counters->evaluated += s1.stats.evaluated;
            counters->accepted += s1.stats.accepted;
            if (!s1.report.valid) {
                if (++no_improve >= opts.alloc.patience && iter > 0) break;
                continue;
            }
            if (iter == 0) {
                buffer_max = PeakBufferUsage(s1.parsed, s1.dlsa);
                if (buffer_max <= 0) buffer_max = hw.gbuf_bytes;
            }
            DlsaStageResult s2;
            {
                SpanScope span(log, "search.dlsa_stage");
                s2 = RunDlsaStage(graph, hw, s1.parsed, s1.dlsa,
                                  hw.gbuf_bytes, opts.dlsa, rng);
            }
            counters->evaluated += s2.stats.evaluated;
            counters->accepted += s2.stats.accepted;
            if (s2.cost < best_cost) {
                best_cost = s2.cost;
                out.lfa = s1.lfa;
                out.parsed = std::move(s1.parsed);
                out.dlsa = s2.dlsa;
                out.report = s2.report;
                no_improve = 0;
            } else if (++no_improve >= opts.alloc.patience) {
                break;
            }
        }
    }
    if (!out.report.valid) return out;

    IrModule ir;
    {
        SpanScope span(log, "compiler.ir");
        ir = GenerateIr(graph, out.parsed, out.dlsa);
    }
    Program program;
    {
        SpanScope span(log, "compiler.instgen");
        program = GenerateInstructions(ir);
    }
    counters->instructions += program.instructions.size();
    std::vector<double> compute_seconds;
    compute_seconds.reserve(ir.tiles.size());
    for (const IrTile &tile : ir.tiles) compute_seconds.push_back(tile.seconds);
    {
        SpanScope span(log, "compiler.vm");
        const VmResult vm = ExecuteProgram(program, compute_seconds, hw);
        if (!vm.ok) return out;
    }
    {
        SpanScope span(log, "hw.banked_replay");
        const MemoryValidationResult mv =
            ValidateMemoryTiming(graph, hw, out.parsed, out.dlsa);
        if (!mv.ok) return out;
        counters->transactions += mv.replay.transactions;
    }
    out.valid = true;
    return out;
}

void
ReplayMutations(const LayerResult &found, int request_index,
                std::uint64_t seed, SpanLog *log, LayerCounters *counters,
                CheckLog *checks)
{
    SpanScope replay_span(log, "bench.replay", request_index);
    const Graph &graph = *found.graph;
    const HardwareConfig &hw = found.hw;
    const Bytes budget = hw.gbuf_bytes;
    const Ops total_ops = graph.TotalOps();
    const int tiling_cap = LfaStageOptions{}.tiling_cap;
    Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (request_index + 1)));

    // ---- LFA chain: incremental parse + LFA evaluation, greedy walk.
    auto memo = std::make_shared<TileCostMemo>();
    CoreArrayEvaluator core_eval(graph, hw, memo);
    CoreArrayEvaluator probe_eval(graph, hw, memo);
    EvalContext ctx;
    ctx.set_tiling_cache(std::make_shared<TilingCache>());
    DlsaEncoding dlsa;
    auto evaluate_lfa = [&](const LfaEncoding &lfa) -> double {
        const ParsedSchedule *parsed = nullptr;
        {
            SpanScope span(log, "notation.parse");
            parsed = &ctx.Parse(graph, lfa, core_eval);
        }
        const ParseScratch &scratch = ctx.parse_scratch();
        counters->dirty_groups += scratch.last_dirty_groups;
        counters->parsed_groups +=
            scratch.last_dirty_groups + scratch.last_clean_groups;
        if (!parsed->valid) return std::numeric_limits<double>::infinity();
        MakeDoubleBufferDlsaInto(*parsed, &dlsa);
        SpanScope span(log, "sim.eval_lfa");
        const EvalReport &rep =
            ctx.EvaluateLfa(graph, hw, *parsed, dlsa, budget, total_ops);
        return rep.Cost();
    };
    LfaEncoding current = found.lfa;
    double current_cost = evaluate_lfa(current);
    ctx.Commit();
    LfaEncoding next;
    for (int step = 0; step < kLfaSteps; ++step) {
        if (!MutateLfaEncoding(graph, current, &next, tiling_cap, rng))
            continue;
        // A from-scratch parse of the same candidate against the shared
        // tile-cost memo: every tile is looked up once, so the memo's
        // hit ratio is (tiles - newly costed) / tiles.
        {
            ParseOptions scratch_parse;
            scratch_parse.reuse_groups = false;
            const std::size_t before = memo->size();
            const ParsedSchedule probe =
                ParseLfa(graph, next, probe_eval, scratch_parse);
            if (probe.valid) {
                counters->memo_lookups += probe.tiles.size();
                counters->memo_computes += memo->size() - before;
            }
        }
        const double cost = evaluate_lfa(next);
        if (cost <= current_cost) {
            ctx.Commit();
            current = next;
            current_cost = cost;
        }
    }

    // ---- DLSA chain on the found schedule: delta evaluation, checked
    // periodically against a from-scratch evaluation.
    EvalContext dctx;
    DlsaEncoding cur = found.dlsa;
    double cur_cost = 0.0;
    {
        SpanScope span(log, "sim.eval_full");
        cur_cost = dctx.Evaluate(graph, hw, found.parsed, cur, budget,
                                 total_ops)
                       .Cost();
    }
    dctx.Commit();
    const DlsaMutator mutator(found.parsed);
    DlsaEncoding cand;
    for (int step = 0; step < kDlsaSteps; ++step) {
        DlsaDelta delta;
        if (!mutator(cur, &cand, rng, &delta)) continue;
        double cost = 0.0;
        {
            SpanScope span(log, "sim.eval_delta");
            cost = dctx.EvaluateDelta(graph, hw, found.parsed, cand, delta,
                                      budget, total_ops)
                       .Cost();
        }
        if (step % kFullEvalEvery == 0) {
            EvalContext fresh;
            double full_cost = 0.0;
            {
                SpanScope span(log, "sim.eval_full");
                full_cost = fresh.Evaluate(graph, hw, found.parsed, cand,
                                           budget, total_ops)
                                .Cost();
            }
            CheckSame(check::kDeltaFull,
                      graph.name() + " step " + std::to_string(step),
                      CostText(full_cost), CostText(cost), checks);
        }
        if (cost <= cur_cost) {
            dctx.Commit();
            cur = cand;
            cur_cost = cost;
        }
    }
    counters->windowed_runs += dctx.delta_stats().windowed_runs;
    counters->splices += dctx.delta_stats().splices;
}

}  // namespace e2e
}  // namespace soma
