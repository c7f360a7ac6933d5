/**
 * @file
 * Output checks of the end-to-end benchmark. Every check compares the
 * program's output with a value computed apart from it (the compiler's
 * VM replay of the IR text, the banked DRAM replay, bounds derived from
 * the graph and the hardware alone) or with a property the method must
 * have (thread-count independence, byte-identical cache hits). None
 * compares against a stored copy of an earlier run's output.
 *
 * SelfTest() corrupts one value of a passing sample at a time and
 * requires the matching check to fire, so a check that can never fail
 * shows up as a failed run.
 */
#ifndef SOMA_BENCH_E2E_CHECKS_H
#define SOMA_BENCH_E2E_CHECKS_H

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/vm.h"
#include "hw/hardware.h"
#include "sim/report.h"
#include "workload/graph.h"

namespace soma {
namespace e2e {

/** Check names, as they appear in failure messages. */
namespace check {
inline constexpr const char *kVmMakespan = "vm_makespan_eq_latency";
inline constexpr const char *kVmCoreBusy = "vm_core_busy_eq_compute_busy";
inline constexpr const char *kVmDramBusy = "vm_dram_busy_eq_dram_busy";
inline constexpr const char *kLatencyBusy = "latency_ge_busy";
inline constexpr const char *kLatencyOps = "latency_ge_matrix_ops_at_peak";
inline constexpr const char *kLatencyWeights =
    "latency_ge_weight_bytes_at_bandwidth";
inline constexpr const char *kDramWeights = "dram_bytes_ge_weight_bytes";
inline constexpr const char *kPeakBuffer = "peak_buffer_le_gbuf";
inline constexpr const char *kDramEnergy = "dram_energy_eq_bytes_x_pj";
inline constexpr const char *kBankedLatency = "banked_latency_ge_analytical";
inline constexpr const char *kTransactions = "dram_transactions_in_range";
inline constexpr const char *kThreads = "threads_1_eq_threads_n";
inline constexpr const char *kCached = "cached_eq_cold_bytes";
inline constexpr const char *kRounds = "rounds_eq_reference";
inline constexpr const char *kDeltaFull = "delta_eval_eq_full_eval";
}  // namespace check

/** The banked model's burst size in bytes (one DRAM transaction). */
inline constexpr std::uint64_t kBurstBytes = 64;

/** Collected check outcomes of one run. */
struct CheckLog {
    std::uint64_t evaluated = 0;
    std::vector<std::string> failures;  ///< "<check>: <detail>"

    void Expect(bool ok, const char *check, const std::string &detail);
    /** True when a failure of @p check was recorded. */
    bool Fired(const char *check) const;
};

/** Quantities the checks derive from the graph and the hardware alone. */
struct InputFacts {
    double matrix_ops = 0.0;
    double peak_ops_per_s = 0.0;
    double weight_bytes = 0.0;
    double dram_bytes_per_s = 0.0;
    double gbuf_bytes = 0.0;
    double dram_pj_per_byte = 0.0;
};

InputFacts FactsFor(const Graph &graph, const HardwareConfig &hw);

/** Bounds and identities every valid report must satisfy. */
void CheckReport(const EvalReport &report, const InputFacts &in,
                 CheckLog *log);

/** The VM's replay of the IR text against the report's timing. */
void CheckVmReplay(const EvalReport &report, const VmResult &vm,
                   CheckLog *log);

/** The banked DRAM replay against the analytical report. */
void CheckBankedReplay(const EvalReport &report, double banked_latency,
                       std::uint64_t transactions, CheckLog *log);

/** Two outputs that must be byte-identical. */
void CheckSame(const char *check, const std::string &what,
               const std::string &expected, const std::string &actual,
               CheckLog *log);

/** One passing observation, corrupted value by value by SelfTest. */
struct CheckSample {
    EvalReport report;
    InputFacts inputs;
    VmResult vm;
    double banked_latency = 0.0;
    std::uint64_t transactions = 0;
    std::string identity;  ///< scheme + cost + report, as compared
};

/**
 * Runs every check on @p sample unchanged (all must pass) and on one
 * corrupted copy per check (that check must fire). Each miss is
 * recorded in @p log as a "selftest.<check>" failure.
 */
void SelfTest(const CheckSample &sample, CheckLog *log);

}  // namespace e2e
}  // namespace soma

#endif  // SOMA_BENCH_E2E_CHECKS_H
