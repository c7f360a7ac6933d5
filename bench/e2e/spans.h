/**
 * @file
 * The benchmark's own span log: nested [begin, end) intervals recorded
 * around the benchmark's calls into each layer's public functions.
 * Spans live in memory and are written out once, as Chrome trace-event
 * JSON, when the run ends. Self time of a span is its duration minus
 * the time covered by its direct children (children are recorded on
 * the one benchmark thread, so they never overlap).
 *
 * Single-threaded by design: only the benchmark's driving thread opens
 * spans; the program's own worker threads are not traced here.
 */
#ifndef SOMA_BENCH_E2E_SPANS_H
#define SOMA_BENCH_E2E_SPANS_H

#include <string>
#include <vector>

#include "common/json.h"
#include "obs/clock.h"

namespace soma {
namespace e2e {

class SpanLog {
  public:
    struct Span {
        std::string name;
        int parent = -1;  ///< index of the enclosing span, -1 for roots
        int request = -1; ///< request the span belongs to (-1: none)
        obs::MonotonicTime start{};
        obs::MonotonicTime end{};
    };

    SpanLog() : t0_(obs::MonotonicNow()) {}

    /** Opens a span under the innermost open one; returns its id. */
    int Begin(const std::string &name, int request = -1);
    /** Closes span @p id (must be the innermost open span). */
    void End(int id);

    /** Sum of durations of every span called @p name, in seconds. */
    double TotalSeconds(const std::string &name) const;
    /** Sum of self times of every span called @p name, in seconds. */
    double SelfSeconds(const std::string &name) const;
    /** Durations of every span called @p name, in microseconds. */
    std::vector<double> DurationsUs(const std::string &name) const;

    /** {"traceEvents": [...]} with one complete event per span. */
    Json ChromeTrace() const;

    const std::vector<Span> &spans() const { return spans_; }

  private:
    /** Self time of every span, in seconds, indexed like spans_. */
    std::vector<double> SelfTimes() const;

    const obs::MonotonicTime t0_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span on a SpanLog (no-op for a null log). */
class SpanScope {
  public:
    SpanScope(SpanLog *log, const std::string &name, int request = -1)
        : log_(log), id_(log ? log->Begin(name, request) : -1)
    {
    }
    ~SpanScope()
    {
        if (log_) log_->End(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog *const log_;
    const int id_;
};

}  // namespace e2e
}  // namespace soma

#endif  // SOMA_BENCH_E2E_SPANS_H
