#include "checks.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>

namespace soma {
namespace e2e {

namespace {

/** Relative tolerance of the ISSUE-level identities (VM replay, DRAM
 *  energy): both sides sum the same terms, possibly in another order. */
constexpr double kRelTol = 1e-9;
/** Slack for the inequalities, which are exact up to rounding. */
constexpr double kSlack = 1e-12;

bool
NearlyEqual(double a, double b)
{
    return std::fabs(a - b) <= kRelTol * std::max(std::fabs(a), std::fabs(b));
}

std::string
Fmt(const char *label_a, double a, const char *label_b, double b)
{
    std::ostringstream os;
    os.precision(17);
    os << label_a << "=" << a << " " << label_b << "=" << b;
    return os.str();
}

}  // namespace

void
CheckLog::Expect(bool ok, const char *check, const std::string &detail)
{
    ++evaluated;
    if (!ok) failures.push_back(std::string(check) + ": " + detail);
}

bool
CheckLog::Fired(const char *check) const
{
    const std::string prefix = std::string(check) + ":";
    for (const std::string &f : failures)
        if (f.compare(0, prefix.size(), prefix) == 0) return true;
    return false;
}

InputFacts
FactsFor(const Graph &graph, const HardwareConfig &hw)
{
    InputFacts in;
    in.matrix_ops = static_cast<double>(graph.TotalMatrixOps());
    in.peak_ops_per_s = hw.PeakOpsPerSecond();
    in.weight_bytes = static_cast<double>(graph.TotalWeightBytes());
    in.dram_bytes_per_s = hw.DramBytesPerSecond();
    in.gbuf_bytes = static_cast<double>(hw.gbuf_bytes);
    in.dram_pj_per_byte = hw.energy.dram_pj_per_byte;
    return in;
}

void
CheckReport(const EvalReport &r, const InputFacts &in, CheckLog *log)
{
    const double busy = std::max(r.compute_busy, r.dram_busy);
    log->Expect(r.latency >= busy * (1.0 - kSlack), check::kLatencyBusy,
                Fmt("latency", r.latency, "max_busy", busy));
    const double ops_bound = in.matrix_ops / in.peak_ops_per_s;
    log->Expect(r.latency >= ops_bound * (1.0 - kSlack), check::kLatencyOps,
                Fmt("latency", r.latency, "matrix_ops/peak", ops_bound));
    const double weight_bound = in.weight_bytes / in.dram_bytes_per_s;
    log->Expect(r.latency >= weight_bound * (1.0 - kSlack),
                check::kLatencyWeights,
                Fmt("latency", r.latency, "weight_bytes/bw", weight_bound));
    log->Expect(static_cast<double>(r.dram_bytes) >= in.weight_bytes,
                check::kDramWeights,
                Fmt("dram_bytes", static_cast<double>(r.dram_bytes),
                    "weight_bytes", in.weight_bytes));
    log->Expect(static_cast<double>(r.peak_buffer) <= in.gbuf_bytes,
                check::kPeakBuffer,
                Fmt("peak_buffer", static_cast<double>(r.peak_buffer),
                    "gbuf_bytes", in.gbuf_bytes));
    const double energy =
        static_cast<double>(r.dram_bytes) * in.dram_pj_per_byte * 1e-12;
    log->Expect(NearlyEqual(r.dram_energy_j, energy), check::kDramEnergy,
                Fmt("dram_energy_j", r.dram_energy_j, "bytes*pj", energy));
}

void
CheckVmReplay(const EvalReport &r, const VmResult &vm, CheckLog *log)
{
    log->Expect(vm.ok && NearlyEqual(vm.makespan, r.latency),
                check::kVmMakespan,
                Fmt("vm_makespan", vm.makespan, "latency", r.latency) +
                    (vm.ok ? "" : " vm error: " + vm.error));
    log->Expect(vm.ok && NearlyEqual(vm.core_busy, r.compute_busy),
                check::kVmCoreBusy,
                Fmt("vm_core_busy", vm.core_busy, "compute_busy",
                    r.compute_busy));
    log->Expect(vm.ok && NearlyEqual(vm.dram_busy, r.dram_busy),
                check::kVmDramBusy,
                Fmt("vm_dram_busy", vm.dram_busy, "dram_busy", r.dram_busy));
}

void
CheckBankedReplay(const EvalReport &r, double banked_latency,
                  std::uint64_t transactions, CheckLog *log)
{
    log->Expect(banked_latency >= r.latency * (1.0 - kSlack),
                check::kBankedLatency,
                Fmt("banked", banked_latency, "analytical", r.latency));
    // Every tensor moves in whole bursts: at least bytes/64 of them, and
    // at most one partial burst more per tensor.
    const std::uint64_t bytes = static_cast<std::uint64_t>(r.dram_bytes);
    const std::uint64_t moved = transactions * kBurstBytes;
    const std::uint64_t upper =
        bytes + kBurstBytes * static_cast<std::uint64_t>(r.num_tensors);
    log->Expect(moved >= bytes && moved <= upper, check::kTransactions,
                Fmt("transactions", static_cast<double>(transactions),
                    "dram_bytes/64", static_cast<double>(bytes) / 64.0) +
                    " num_tensors=" + std::to_string(r.num_tensors));
}

void
CheckSame(const char *check, const std::string &what,
          const std::string &expected, const std::string &actual,
          CheckLog *log)
{
    std::string detail = what;
    if (expected != actual) {
        std::size_t at = 0;
        while (at < expected.size() && at < actual.size() &&
               expected[at] == actual[at])
            ++at;
        detail += " differs at byte " + std::to_string(at);
    }
    log->Expect(expected == actual, check, detail);
}

namespace {

/** Every check over one sample. */
void
RunAll(const CheckSample &s, CheckLog *log)
{
    CheckReport(s.report, s.inputs, log);
    CheckVmReplay(s.report, s.vm, log);
    CheckBankedReplay(s.report, s.banked_latency, s.transactions, log);
}

std::string
FlipMiddleByte(std::string text)
{
    if (text.empty()) return "x";
    text[text.size() / 2] ^= 0x01;
    return text;
}

}  // namespace

void
SelfTest(const CheckSample &clean, CheckLog *log)
{
    {
        CheckLog run;
        RunAll(clean, &run);
        log->Expect(run.failures.empty(), "selftest.clean_sample",
                    run.failures.empty() ? "" : run.failures.front());
    }
    struct Corruption {
        const char *check;
        std::function<void(CheckSample *)> apply;
    };
    const double bump = 1.0 + 1e-6;
    const std::vector<Corruption> corruptions = {
        {check::kVmMakespan, [&](CheckSample *s) { s->vm.makespan *= bump; }},
        {check::kVmCoreBusy,
         [&](CheckSample *s) { s->vm.core_busy = s->vm.core_busy * bump + 1e-9; }},
        {check::kVmDramBusy,
         [&](CheckSample *s) { s->vm.dram_busy = s->vm.dram_busy * bump + 1e-9; }},
        {check::kLatencyBusy,
         [](CheckSample *s) {
             s->report.latency =
                 0.999 * std::max(s->report.compute_busy, s->report.dram_busy);
         }},
        {check::kLatencyOps,
         [](CheckSample *s) {
             s->inputs.matrix_ops =
                 1.01 * s->report.latency * s->inputs.peak_ops_per_s;
         }},
        {check::kLatencyWeights,
         [](CheckSample *s) {
             s->inputs.weight_bytes =
                 1.01 * s->report.latency * s->inputs.dram_bytes_per_s;
         }},
        {check::kDramWeights,
         [](CheckSample *s) {
             s->report.dram_bytes =
                 static_cast<Bytes>(s->inputs.weight_bytes) - 1;
         }},
        {check::kPeakBuffer,
         [](CheckSample *s) {
             s->report.peak_buffer =
                 static_cast<Bytes>(s->inputs.gbuf_bytes) + 1;
         }},
        {check::kDramEnergy,
         [](CheckSample *s) { s->report.dram_energy_j *= 1.001; }},
        {check::kBankedLatency,
         [](CheckSample *s) { s->banked_latency = 0.999 * s->report.latency; }},
        {check::kTransactions,  // one burst short of the bytes moved
         [](CheckSample *s) {
             s->transactions =
                 static_cast<std::uint64_t>(s->report.dram_bytes) /
                     kBurstBytes -
                 1;
         }},
        {check::kTransactions,  // more than one partial burst per tensor
         [](CheckSample *s) {
             s->transactions =
                 static_cast<std::uint64_t>(s->report.dram_bytes) /
                     kBurstBytes +
                 static_cast<std::uint64_t>(s->report.num_tensors) + 1;
         }},
    };
    auto expect_fired = [log](const CheckLog &run, const char *check) {
        log->Expect(run.Fired(check), "selftest.corruption_detected",
                    std::string("check ") + check +
                        " did not fire on a corrupted value");
    };
    for (const Corruption &c : corruptions) {
        CheckSample bad = clean;
        c.apply(&bad);
        CheckLog run;
        RunAll(bad, &run);
        expect_fired(run, c.check);
    }
    // The byte-identity checks: one flipped byte must be noticed.
    for (const char *same : {check::kThreads, check::kRounds, check::kCached,
                             check::kDeltaFull}) {
        CheckLog run;
        CheckSame(same, "sample", clean.identity,
                  FlipMiddleByte(clean.identity), &run);
        expect_fired(run, same);
    }
}

}  // namespace e2e
}  // namespace soma
