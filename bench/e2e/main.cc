/**
 * @file
 * soma_e2e — the end-to-end and per-layer scheduler benchmark.
 *
 *   soma_e2e --workload NAME --seed N --seconds S --trace 0|1
 *            [--out-dir DIR]
 *
 * One client sends the workload's requests one at a time (a closed
 * loop) to a SchedulerService; each round starts a fresh service, so
 * the round's cold pass runs every search, and a cached pass then
 * replays the round from the result cache. Each search uses as many
 * driver threads as the machine has hardware threads.
 *
 * --trace 0 runs one warm-up round, times whole rounds for S seconds
 * (each must reproduce the warm-up's results exactly), re-runs every
 * request on one driver thread (same results again) and prints the
 * end-to-end metrics.
 * --trace 1 drives one round through the layer entry points with spans
 * of its own (layers.h), then alternates untraced and traced rounds
 * until S seconds have passed, writes the spans as a Chrome trace into
 * DIR, and prints the per-layer metrics.
 *
 * Either way every output is checked (checks.h) and the last stdout
 * line is one JSON object: {"correct", "attempted", "failed",
 * "metrics"}. The exit code is 0 only when every check passed.
 */
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "compiler/ir.h"
#include "compiler/vm.h"
#include "layers.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "service/service.h"
#include "sim/memory_validation.h"
#include "spans.h"
#include "workloads.h"

namespace soma {
namespace e2e {
namespace {

/** Taken during static initialization: the process's start. */
const obs::MonotonicTime kProcessStart = obs::MonotonicNow();

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string out_dir = ".";
};

bool
ParseArgs(int argc, char **argv, Options *opts, std::string *err)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            *err = "missing value for " + arg;
            return false;
        }
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opts->workload = value;
        } else if (arg == "--seed") {
            opts->seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            opts->seconds = std::strtod(value.c_str(), &end);
        } else if (arg == "--trace") {
            opts->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
        } else if (arg == "--out-dir") {
            opts->out_dir = value;
        } else {
            *err = "unknown argument " + arg;
            return false;
        }
        if (end && *end != '\0') {
            *err = "bad value for " + arg + ": " + value;
            return false;
        }
    }
    if (opts->workload.empty()) {
        *err = "--workload is required";
        return false;
    }
    if (!(opts->seconds > 0.0) || (opts->trace != 0 && opts->trace != 1)) {
        *err = "--seconds must be > 0 and --trace 0 or 1";
        return false;
    }
    return true;
}

double
Median(std::vector<double> v)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
Ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::string
Num(double v)
{
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

/** What the thread and round checks compare: scheme, cost, report. */
std::string
Identity(const ScheduleResult &r)
{
    return r.scheme + "\n" + Num(r.cost) + "\n" + ReportToJson(r.report).Dump();
}

struct OpCount {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** One request of a round's cold pass. */
struct Outcome {
    ScheduleResult result;
    std::string text;
    bool have_banked = false;
    double banked_latency = 0.0;
    std::uint64_t transactions = 0;
    std::unique_ptr<obs::Tracer> tracer;  ///< traced rounds only
};

/**
 * Moves the calling thread across the CPUs it may run on, one at a
 * time, and restores its affinity when destroyed. The host's CPUs are
 * not equally fast (on the reference box one ran cache hits at 20 us
 * while the others took 30-36 us), and a thread stays where the OS
 * first put it, so a sub-millisecond timing taken on one CPU measures
 * that CPU. Rotating samples every CPU in every run.
 */
class CpuRotation {
  public:
    CpuRotation()
    {
        CPU_ZERO(&original_);
        if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
    ~CpuRotation()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof(original_), &original_);
    }
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Pins the thread to the next CPU (no-op when none are known). */
    void Next()
    {
        if (cpus_.empty()) return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

  private:
    cpu_set_t original_;
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

/** Timed cache hits per CPU before the rotation moves on. */
constexpr std::size_t kHitsPerCpu = 256;

struct Round {
    double seconds = 0.0;  ///< the cold pass
    std::vector<Outcome> cold;
    std::vector<double> hit_us;
    ServiceStats stats;
};

/**
 * One round on a fresh SchedulerService: the timed cold pass, then
 * @p cached_passes result-cache replays, each checked byte for byte
 * against the cold pass. @p traced attaches a program tracer to each
 * request (which also turns the prof sites on) and a benchmark span
 * around each call.
 */
Round
RunRound(const Workload &wl, int cached_passes, bool traced, SpanLog *spans,
         OpCount *ops, CheckLog *checks)
{
    Round round;
    SchedulerService service;
    obs::MetricsRegistry &reg = obs::MetricsRegistry::Global();
    obs::Counter &validations = reg.GetCounter("eval.dram.validations");
    obs::Counter &validation_errors =
        reg.GetCounter("eval.dram.validation_errors");
    obs::Counter &transactions = reg.GetCounter("eval.dram.transactions");
    obs::Gauge &banked = reg.GetGauge("memory.banked_latency");

    const int n = static_cast<int>(wl.requests.size());
    round.cold.resize(n);
    const obs::MonotonicTime t0 = obs::MonotonicNow();
    for (int i = 0; i < n; ++i) {
        Outcome &o = round.cold[i];
        ScheduleRequest req = wl.requests[i];
        if (traced) {
            o.tracer = std::make_unique<obs::Tracer>();
            req.trace = o.tracer.get();
        }
        const std::uint64_t v0 = validations.value();
        const std::uint64_t e0 = validation_errors.value();
        const std::uint64_t tx0 = transactions.value();
        {
            SpanScope span(spans, "service.schedule", i);
            o.result = service.Schedule(req, &o.text);
        }
        if (req.validate_memory && validations.value() == v0 + 1 &&
            validation_errors.value() == e0) {
            o.have_banked = true;
            o.banked_latency = banked.value();
            o.transactions = transactions.value() - tx0;
        }
        ++ops->attempted;
        if (!o.result.ok) ++ops->failed;
    }
    round.seconds = obs::SecondsSince(t0);

    std::string text;
    CpuRotation rotation;
    for (int pass = 0; pass < cached_passes; ++pass) {
        for (int i = 0; i < n; ++i) {
            if (round.hit_us.size() % kHitsPerCpu == 0)
                rotation.Next();
            const obs::MonotonicTime t = obs::MonotonicNow();
            const ScheduleResult hit = service.Schedule(wl.requests[i], &text);
            round.hit_us.push_back(obs::SecondsSince(t) * 1e6);
            ++ops->attempted;
            if (!hit.ok) ++ops->failed;
            CheckSame(check::kCached, wl.requests[i].model,
                      round.cold[i].text, text, checks);
        }
    }
    round.stats = service.stats();
    return round;
}

/**
 * The output checks on a round's cold results (which carry the
 * in-process payload). Fills @p sample from the first request for the
 * self-test.
 */
void
CheckOutputs(const Workload &wl, const Round &round, CheckLog *checks,
             CheckSample *sample)
{
    const HardwareRegistry hardware = HardwareRegistry::WithBuiltins();
    for (std::size_t i = 0; i < wl.requests.size(); ++i) {
        const ScheduleRequest &req = wl.requests[i];
        const Outcome &o = round.cold[i];
        const ScheduleResult &res = o.result;
        std::string err;
        HardwareConfig hw;
        const bool usable = res.ok && res.graph && res.report.valid &&
                            HardwareFor(req, hardware, &hw, &err);
        checks->Expect(usable, "request_ok", req.model + ": " + res.error + err);
        if (!usable) continue;
        const Graph &graph = *res.graph;
        const InputFacts inputs = FactsFor(graph, hw);
        CheckReport(res.report, inputs, checks);

        // The IR text, parsed back and replayed on the compiler's VM.
        const std::string ir_text =
            res.ir_text.empty()
                ? GenerateIr(graph, res.parsed, res.dlsa).ToText()
                : res.ir_text;
        IrModule ir;
        VmResult vm;
        if (IrModule::FromText(ir_text, &ir, &err))
            vm = ExecuteIr(ir, hw);
        else
            vm.error = "IR text does not parse: " + err;
        CheckVmReplay(res.report, vm, checks);

        // The banked replay: the program's own when the request asked
        // for it, otherwise run here on the result's schedule.
        double banked_latency = o.banked_latency;
        std::uint64_t tx = o.transactions;
        if (req.validate_memory) {
            checks->Expect(o.have_banked, check::kBankedLatency,
                           req.model + ": the requested replay did not run");
        } else {
            const MemoryValidationResult mv =
                ValidateMemoryTiming(graph, hw, res.parsed, res.dlsa);
            checks->Expect(mv.ok, check::kBankedLatency,
                           req.model + ": replay failed: " + mv.error);
            banked_latency = mv.banked_latency;
            tx = mv.replay.transactions;
        }
        CheckBankedReplay(res.report, banked_latency, tx, checks);

        if (i == 0) {
            sample->report = res.report;
            sample->inputs = inputs;
            sample->vm = vm;
            sample->banked_latency = banked_latency;
            sample->transactions = tx;
            sample->identity = Identity(res);
        }
    }
}

double
PeakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/** Prints the result line; returns the process exit code. */
int
Finish(const CheckLog &checks, const OpCount &ops,
       const std::vector<Metric> &metrics)
{
    bool finite = true;
    for (const Metric &m : metrics) {
        if (!std::isfinite(m.value)) {
            std::cerr << "metric " << m.name << " is not finite\n";
            finite = false;
        }
    }
    for (const std::string &f : checks.failures)
        std::cerr << "CHECK FAILED " << f << "\n";
    std::cerr << checks.evaluated << " checks, " << checks.failures.size()
              << " failed\n";
    const bool correct = checks.failures.empty() && finite;
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << ops.attempted
       << ", \"failed\": " << ops.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
           << (std::isfinite(m.value) ? Num(m.value) : "0")
           << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
    return correct ? 0 : 1;
}

double
GeoMean(const std::vector<double> &v)
{
    double log_sum = 0.0;
    for (double x : v) log_sum += std::log(x);
    return v.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(v.size()));
}

int
RunEndToEnd(const Options &opts, const Workload &wl)
{
    CheckLog checks;
    OpCount untimed_ops;
    OpCount ops;
    // Warm-up: one untimed round. Its results are the reference every
    // later round must reproduce exactly.
    const Round reference =
        RunRound(wl, 0, /*traced=*/false, nullptr, &untimed_ops, &checks);
    const obs::MonotonicTime t_first = obs::MonotonicNow();
    const double setup_s =
        static_cast<double>(obs::NanosBetween(kProcessStart, t_first)) * 1e-9;

    std::vector<double> round_s, hit_us;
    do {
        const Round r = RunRound(wl, wl.cached_passes, /*traced=*/false,
                                 nullptr, &ops, &checks);
        round_s.push_back(r.seconds);
        hit_us.insert(hit_us.end(), r.hit_us.begin(), r.hit_us.end());
        for (std::size_t i = 0; i < wl.requests.size(); ++i)
            CheckSame(check::kRounds, wl.requests[i].model,
                      Identity(reference.cold[i].result),
                      Identity(r.cold[i].result), &checks);
    } while (obs::SecondsSince(t_first) < opts.seconds);
    const double peak_rss_mb = PeakRssMb();

    // Every request once more with its search on one driver thread.
    Workload serial = wl;
    for (ScheduleRequest &req : serial.requests) req.threads = 1;
    const Round one_thread =
        RunRound(serial, 0, /*traced=*/false, nullptr, &untimed_ops, &checks);
    for (std::size_t i = 0; i < wl.requests.size(); ++i)
        CheckSame(check::kThreads, wl.requests[i].model + " at 1 thread",
                  Identity(reference.cold[i].result),
                  Identity(one_thread.cold[i].result), &checks);

    std::vector<double> latency, energy;
    double dram_bytes = 0.0;
    for (const Outcome &o : reference.cold) {
        latency.push_back(o.result.report.latency);
        energy.push_back(o.result.report.EnergyJ());
        dram_bytes += static_cast<double>(o.result.report.dram_bytes);
    }
    CheckSample sample;
    CheckOutputs(wl, reference, &checks, &sample);
    SelfTest(sample, &checks);

    std::cerr << wl.name << ": " << round_s.size() << " rounds (s):";
    for (double s : round_s) std::cerr << " " << s;
    std::cerr << "; " << hit_us.size() << " cache hits, median "
              << Median(hit_us) << " us\n";
    return Finish(checks, ops,
                  {{"setup_s", setup_s, "s"},
                   {"round_s", Median(round_s), "s"},
                   {"cache_hit_us", Median(hit_us), "us"},
                   {"peak_rss_mb", peak_rss_mb, "MB"},
                   {"sim_latency_s", GeoMean(latency), "s"},
                   {"sim_energy_j", GeoMean(energy), "J"},
                   {"dram_traffic_mb", dram_bytes / 1e6, "MB"}});
}

std::uint64_t
CounterValue(const std::string &name)
{
    return obs::MetricsRegistry::Global().GetCounter(name).value();
}

/** Durations (us) of the program tracer's events called @p name. */
std::vector<double>
TracerDurationsUs(const obs::Tracer &tracer, const std::string &name)
{
    std::vector<double> out;
    const Json trace = tracer.ToJson();
    const Json *events = trace.Find("traceEvents");
    if (!events) return out;
    for (const Json &e : events->array_items()) {
        const Json *n = e.Find("name");
        const Json *dur = e.Find("dur");
        if (n && dur && n->AsString() == name) out.push_back(dur->AsDouble());
    }
    return out;
}

int
RunTraced(const Options &opts, const Workload &wl)
{
    CheckLog checks;
    OpCount ops;
    SpanLog spans;
    static const char *const kProfCounters[] = {
        "prof.parse.lfa.calls",      "prof.parse.lfa.nanos",
        "prof.tiling.derive.nanos",  "prof.tilecost.compute.nanos",
        "pipeline.search_nanos"};
    std::map<std::string, double> prof;  // first traced round's deltas

    // The layer-driven round and the mutation replay, with prof sites
    // on; then untraced and traced service rounds until the time is up.
    const obs::MonotonicTime t_first = obs::MonotonicNow();
    LayerCounters lc;
    {
        obs::ProfEnableScope prof_on;
        const ModelRegistry models = ModelRegistry::WithBuiltins();
        const HardwareRegistry hardware = HardwareRegistry::WithBuiltins();
        std::map<std::string, SearchWarmState> warm;
        std::vector<LayerResult> found;
        {
            SpanScope round_span(&spans, "bench.layer_round");
            for (std::size_t i = 0; i < wl.requests.size(); ++i)
                found.push_back(RunLayers(wl.requests[i], static_cast<int>(i),
                                          models, hardware, &warm, &spans,
                                          &lc));
        }
        for (std::size_t i = 0; i < found.size(); ++i) {
            checks.Expect(found[i].valid, "layer_pipeline_valid",
                          wl.requests[i].model);
            if (found[i].valid)
                ReplayMutations(found[i], static_cast<int>(i), opts.seed,
                                &spans, &lc, &checks);
        }
    }

    // Untraced and traced rounds in pairs; the ratio of each pair is
    // one sample of the tracing overhead.
    std::vector<double> untraced_s, traced_s, overhead_pct;
    std::vector<double> service_overhead_us, api_overhead_us;
    Round first;
    do {
        Round u = RunRound(wl, wl.cached_passes, /*traced=*/false, nullptr,
                           &ops, &checks);
        std::map<std::string, std::uint64_t> before;
        for (const char *c : kProfCounters) before[c] = CounterValue(c);
        const Round t =
            RunRound(wl, 0, /*traced=*/true, &spans, &ops, &checks);
        untraced_s.push_back(u.seconds);
        traced_s.push_back(t.seconds);
        overhead_pct.push_back(100.0 * (t.seconds / u.seconds - 1.0));
        // Tracing is observational: traced and later rounds reproduce
        // the first untraced round exactly.
        const Round &ref = first.cold.empty() ? u : first;
        for (std::size_t i = 0; i < wl.requests.size(); ++i) {
            CheckSame(check::kRounds, wl.requests[i].model + " traced",
                      Identity(ref.cold[i].result),
                      Identity(t.cold[i].result), &checks);
            CheckSame(check::kRounds, wl.requests[i].model + " untraced",
                      Identity(ref.cold[i].result),
                      Identity(u.cold[i].result), &checks);
        }
        if (!first.cold.empty()) continue;
        for (const char *c : kProfCounters)
            prof[c] = static_cast<double>(CounterValue(c) - before[c]);
        // Service overhead: the call's wall time minus the program's
        // service.search span; API overhead: that span minus the
        // pipeline's own total_seconds.
        const std::vector<double> call_us = spans.DurationsUs("service.schedule");
        for (std::size_t i = 0; i < t.cold.size(); ++i) {
            const std::vector<double> search_us =
                TracerDurationsUs(*t.cold[i].tracer, "service.search");
            if (search_us.size() != 1 || i >= call_us.size()) continue;
            service_overhead_us.push_back(call_us[i] - search_us[0]);
            api_overhead_us.push_back(
                search_us[0] - t.cold[i].result.stats.total_seconds * 1e6);
        }
        first = std::move(u);
    } while (obs::SecondsSince(t_first) < opts.seconds);

    CheckSample sample;
    CheckOutputs(wl, first, &checks, &sample);
    SelfTest(sample, &checks);

    const std::string trace_path = opts.out_dir + "/trace-" + wl.name +
                                   "-seed" + std::to_string(opts.seed) +
                                   ".json";
    {
        std::ofstream out(trace_path);
        out << spans.ChromeTrace().Dump() << "\n";
        if (!out) std::cerr << "could not write " << trace_path << "\n";
    }
    std::cerr << "spans: " << spans.spans().size() << " -> " << trace_path
              << "\n";

    const ServiceStats &ss = first.stats;
    const double lfa_s = spans.SelfSeconds("search.lfa_stage");
    const double dlsa_s = spans.SelfSeconds("search.dlsa_stage");
    const std::vector<Metric> metrics = {
        {"notation.parse_us", Median(spans.DurationsUs("notation.parse")), "us"},
        {"notation.parse_calls", prof["prof.parse.lfa.calls"], "count"},
        {"notation.parse_share",
         Ratio(prof["prof.parse.lfa.nanos"], prof["pipeline.search_nanos"]),
         "ratio"},
        {"notation.dirty_group_ratio",
         Ratio(static_cast<double>(lc.dirty_groups),
               static_cast<double>(lc.parsed_groups)),
         "ratio"},
        {"tiling.derive_us", prof["prof.tiling.derive.nanos"] * 1e-3, "us"},
        {"tiling.cache_hit_ratio",
         Ratio(static_cast<double>(ss.warm_state.tiling_hits),
               static_cast<double>(ss.warm_state.tiling_hits +
                                   ss.warm_state.tiling_misses)),
         "ratio"},
        {"corearray.tilecost_us", prof["prof.tilecost.compute.nanos"] * 1e-3,
         "us"},
        {"corearray.memo_hit_ratio",
         1.0 - Ratio(static_cast<double>(lc.memo_computes),
                     static_cast<double>(lc.memo_lookups)),
         "ratio"},
        {"sim.eval_full_us", Median(spans.DurationsUs("sim.eval_full")), "us"},
        {"sim.eval_lfa_us", Median(spans.DurationsUs("sim.eval_lfa")), "us"},
        {"sim.eval_delta_us", Median(spans.DurationsUs("sim.eval_delta")),
         "us"},
        {"sim.splice_ratio",
         Ratio(static_cast<double>(lc.splices),
               static_cast<double>(lc.windowed_runs)),
         "ratio"},
        {"search.lfa_stage_s", lfa_s, "s"},
        {"search.dlsa_stage_s", dlsa_s, "s"},
        {"search.alloc_self_s", spans.SelfSeconds("search.buffer_alloc"), "s"},
        {"search.evaluated", static_cast<double>(lc.evaluated), "count"},
        {"search.accept_ratio",
         Ratio(static_cast<double>(lc.accepted),
               static_cast<double>(lc.evaluated)),
         "ratio"},
        {"search.evals_per_s",
         Ratio(static_cast<double>(lc.evaluated), lfa_s + dlsa_s), "1/s"},
        {"hw.banked_replay_s", spans.SelfSeconds("hw.banked_replay"), "s"},
        {"hw.dram_transactions", static_cast<double>(lc.transactions),
         "count"},
        {"compiler.ir_s", spans.SelfSeconds("compiler.ir"), "s"},
        {"compiler.instgen_s", spans.SelfSeconds("compiler.instgen"), "s"},
        {"compiler.vm_s", spans.SelfSeconds("compiler.vm"), "s"},
        {"compiler.instructions", static_cast<double>(lc.instructions),
         "count"},
        {"service.result_hit_ratio",
         Ratio(static_cast<double>(ss.result_cache.hits),
               static_cast<double>(ss.requests)),
         "ratio"},
        {"service.warm_state_hit_ratio",
         Ratio(static_cast<double>(ss.warm_state.hits),
               static_cast<double>(ss.warm_state.acquires)),
         "ratio"},
        {"service.overhead_us", Median(service_overhead_us), "us"},
        {"api.overhead_us", Median(api_overhead_us), "us"},
        {"workload.build_s", spans.SelfSeconds("workload.build"), "s"},
        {"bench.request_self_s", spans.SelfSeconds("bench.request"), "s"},
        {"trace.untraced_round_s", Median(untraced_s), "s"},
        {"trace.traced_round_s", Median(traced_s), "s"},
        {"trace.overhead_pct", Median(overhead_pct), "%"},
    };
    for (const Metric &m : metrics)
        std::cerr << "  " << m.name << " = " << m.value << " " << m.unit
                  << "\n";
    return Finish(checks, ops, metrics);
}

int
Main(int argc, char **argv)
{
    Options opts;
    std::string err;
    if (!ParseArgs(argc, argv, &opts, &err)) {
        std::cerr << "soma_e2e: " << err
                  << "\nusage: soma_e2e --workload NAME --seed N --seconds S"
                     " --trace 0|1 [--out-dir DIR]\n";
        return 2;
    }
    const int threads = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    Workload wl;
    if (!MakeWorkload(opts.workload, opts.seed, threads, &wl, &err)) {
        std::cerr << "soma_e2e: " << err << "\n";
        return 2;
    }
    return opts.trace ? RunTraced(opts, wl) : RunEndToEnd(opts, wl);
}

}  // namespace
}  // namespace e2e
}  // namespace soma

int
main(int argc, char **argv)
{
    try {
        return soma::e2e::Main(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "soma_e2e: " << e.what() << "\n";
        return 3;
    }
}
