#include "trace.h"

#include <algorithm>
#include <ctime>
#include <sstream>
#include <utility>

#include "common/json.h"

namespace perfbench {

std::int64_t
now_ns()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

int
Tracer::begin(const std::string& name, std::uint64_t op)
{
    if (!enabled_) {
        return -1;
    }
    Span s;
    s.name = name;
    s.op = op;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
}

void
Tracer::end(int index)
{
    if (index < 0) {
        return;
    }
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    // Spans close in LIFO order (RAII); pop through the closed one.
    while (!stack_.empty()) {
        const int top = stack_.back();
        stack_.pop_back();
        if (top == index) {
            break;
        }
    }
}

void
Tracer::count(const std::string& name, double delta)
{
    if (enabled_) {
        counters_[name] += delta;
    }
}

double
self_ms(const std::vector<Span>& spans, std::size_t i)
{
    const Span& s = spans[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> kids;
    for (const Span& c : spans) {
        if (c.parent == static_cast<int>(i)) {
            kids.emplace_back(std::max(c.start_ns, s.start_ns),
                              std::min(c.end_ns, s.end_ns));
        }
    }
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [a, b] : kids) {
        const std::int64_t from = std::max(a, reach);
        if (b > from) {
            covered += b - from;
            reach = b;
        }
    }
    return static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
}

std::map<std::string, SpanTotals>
totals(const std::vector<Span>& spans)
{
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        SpanTotals& t = out[spans[i].name];
        ++t.count;
        t.total_ms +=
            static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
        t.self_ms += self_ms(spans, i);
    }
    return out;
}

std::string
check_nesting(const std::vector<Span>& spans)
{
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::ostringstream why;
        if (s.end_ns < s.start_ns) {
            why << "span " << i << " (" << s.name << ") never closed";
            return why.str();
        }
        if (s.parent < 0) {
            continue;
        }
        if (static_cast<std::size_t>(s.parent) >= i) {
            why << "span " << i << " (" << s.name
                << ") names a later parent";
            return why.str();
        }
        const Span& p = spans[static_cast<std::size_t>(s.parent)];
        if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
            why << "span " << i << " (" << s.name
                << ") escapes its parent " << s.parent << " (" << p.name
                << ")";
            return why.str();
        }
        if (s.op != p.op) {
            why << "span " << i << " (" << s.name
                << ") has another op id than its parent";
            return why.str();
        }
    }
    return {};
}

std::string
chrome_trace_json(const std::vector<Span>& spans,
                  const std::map<std::string, double>& counters)
{
    flat::JsonWriter json;
    json.begin_object();
    json.key("traceEvents");
    json.begin_array();
    const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        json.begin_object();
        json.field("name", s.name);
        json.field("ph", "X");
        json.field("pid", std::uint64_t{1});
        json.field("tid", std::uint64_t{1});
        json.field("ts", static_cast<double>(s.start_ns - t0) / 1e3);
        json.field("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3);
        json.key("args");
        json.begin_object();
        json.field("span", static_cast<std::uint64_t>(i));
        json.field("parent", static_cast<std::int64_t>(s.parent));
        json.field("op", s.op);
        json.field("self_ms", self_ms(spans, i));
        json.end_object();
        json.end_object();
    }
    for (const auto& [name, value] : counters) {
        json.begin_object();
        json.field("name", name);
        json.field("ph", "C");
        json.field("pid", std::uint64_t{1});
        json.field("ts", std::uint64_t{0});
        json.key("args");
        json.begin_object();
        json.field("value", value);
        json.end_object();
        json.end_object();
    }
    json.end_array();
    json.field("displayTimeUnit", "ms");
    json.end_object();
    return json.str();
}

} // namespace perfbench
