/**
 * @file
 * In-memory span recorder of the traced benchmark run. Spans are taken
 * by the benchmark around each public call it makes (never inside the
 * simulator), kept in memory, and written once at exit as Chrome Trace
 * Event JSON, which Perfetto and chrome://tracing open offline.
 */
#ifndef FLAT_PERFBENCH_TRACE_H
#define FLAT_PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic clock in nanoseconds (CLOCK_MONOTONIC). */
std::int64_t now_ns();

struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1; ///< -1 while open
    int parent = -1;          ///< index into Tracer::spans(), -1 = root
    std::uint64_t op = 0;     ///< every span of one op shares this id
};

/** Per-name totals derived from closed spans. */
struct SpanTotals {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
};

/**
 * Single-threaded span recorder (the benchmark issues every public call
 * from its main thread). Disabled tracers record nothing, so the traced
 * and untraced runs execute the same code.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Opens a span under the innermost open span; returns its index,
     *  or -1 when disabled. */
    int begin(const std::string& name, std::uint64_t op);
    void end(int index);

    /** Adds @p delta to a named counter (recorded at span boundaries). */
    void count(const std::string& name, double delta);

    const std::vector<Span>& spans() const { return spans_; }
    const std::map<std::string, double>& counters() const
    {
        return counters_;
    }

    /** Test hook: appends a finished span verbatim. */
    void add_for_test(const Span& span) { spans_.push_back(span); }

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::map<std::string, double> counters_;
};

/** RAII span. */
class Scoped
{
  public:
    Scoped(Tracer& tracer, const std::string& name, std::uint64_t op)
        : tracer_(tracer), index_(tracer.begin(name, op))
    {
    }
    ~Scoped() { tracer_.end(index_); }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

  private:
    Tracer& tracer_;
    int index_;
};

/**
 * Self time of span @p i: its duration minus the part of it covered by
 * the union of its direct children.
 */
double self_ms(const std::vector<Span>& spans, std::size_t i);

/** count / total / self time per span name. */
std::map<std::string, SpanTotals> totals(const std::vector<Span>& spans);

/**
 * Empty when every span is closed and lies inside its parent's
 * interval; otherwise a description of the first violation.
 */
std::string check_nesting(const std::vector<Span>& spans);

/** Chrome Trace Event JSON ("X" complete events, microseconds). */
std::string chrome_trace_json(const std::vector<Span>& spans,
                              const std::map<std::string, double>& counters);

} // namespace perfbench

#endif // FLAT_PERFBENCH_TRACE_H
