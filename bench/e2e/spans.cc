#include "spans.h"

#include <cstdlib>

namespace soma {
namespace e2e {

namespace {

double
Seconds(obs::MonotonicTime a, obs::MonotonicTime b)
{
    return static_cast<double>(obs::NanosBetween(a, b)) * 1e-9;
}

}  // namespace

int
SpanLog::Begin(const std::string &name, int request)
{
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.request =
        request >= 0 || span.parent < 0 ? request
                                        : spans_[span.parent].request;
    span.start = obs::MonotonicNow();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void
SpanLog::End(int id)
{
    // Scopes close in LIFO order; anything else is a benchmark bug.
    if (open_.empty() || open_.back() != id) std::abort();
    spans_[id].end = obs::MonotonicNow();
    open_.pop_back();
}

std::vector<double>
SpanLog::SelfTimes() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = Seconds(spans_[i].start, spans_[i].end);
    for (const Span &s : spans_)
        if (s.parent >= 0) self[s.parent] -= Seconds(s.start, s.end);
    return self;
}

double
SpanLog::TotalSeconds(const std::string &name) const
{
    double total = 0.0;
    for (const Span &s : spans_)
        if (s.name == name) total += Seconds(s.start, s.end);
    return total;
}

double
SpanLog::SelfSeconds(const std::string &name) const
{
    const std::vector<double> self = SelfTimes();
    double total = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].name == name) total += self[i];
    return total;
}

std::vector<double>
SpanLog::DurationsUs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.name == name) out.push_back(Seconds(s.start, s.end) * 1e6);
    return out;
}

Json
SpanLog::ChromeTrace() const
{
    const std::vector<double> self = SelfTimes();
    Json events = Json::Array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        Json args = Json::Object();
        args.Set("id", Json::Int(static_cast<std::int64_t>(i)));
        args.Set("parent", Json::Int(s.parent));
        args.Set("request", Json::Int(s.request));
        args.Set("self_us",
                 Json::Number(self[i] * 1e6));
        Json e = Json::Object();
        e.Set("name", Json::Str(s.name));
        e.Set("ph", Json::Str("X"));
        e.Set("pid", Json::Int(1));
        e.Set("tid", Json::Int(1));
        e.Set("ts", Json::Number(Seconds(t0_, s.start) * 1e6));
        e.Set("dur", Json::Number(Seconds(s.start, s.end) * 1e6));
        e.Set("args", std::move(args));
        events.Append(std::move(e));
    }
    Json root = Json::Object();
    root.Set("traceEvents", std::move(events));
    return root;
}

}  // namespace e2e
}  // namespace soma
