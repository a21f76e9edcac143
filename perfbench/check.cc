#include "check.h"

#include <cstdint>
#include <cstring>
#include <sstream>

#include "costmodel/attention_cost.h"
#include "costmodel/operator_cost.h"
#include "trace.h"

namespace perfbench {

namespace {

constexpr std::size_t kKeptMessages = 8;

/** Appends "name a vs b" for each differing field. */
class FieldDiff
{
  public:
    void operator()(const char* name, double expected, double actual)
    {
        if (!same_bits(expected, actual)) {
            os_ << ' ' << name << ' ';
            os_.precision(17);
            os_ << expected << " vs " << actual;
        }
    }
    std::string str() const { return os_.str(); }

  private:
    std::ostringstream os_;
};

void
diff_cost(FieldDiff& d, const flat::OperatorCost& reported,
          const flat::OperatorCost& fresh)
{
    d("cycles", fresh.cycles, reported.cycles);
    d("ideal_cycles", fresh.ideal_cycles, reported.ideal_cycles);
    d("footprint", static_cast<double>(fresh.live_footprint_bytes),
      static_cast<double>(reported.live_footprint_bytes));
    d("resident_fraction", fresh.resident_fraction,
      reported.resident_fraction);
    const flat::ActivityCounts& a = fresh.activity;
    const flat::ActivityCounts& b = reported.activity;
    d("macs", a.macs, b.macs);
    d("sl_accesses", a.sl_accesses, b.sl_accesses);
    d("sfu_elems", a.sfu_elems, b.sfu_elems);
    d("dram_read", a.traffic.dram_read, b.traffic.dram_read);
    d("dram_write", a.traffic.dram_write, b.traffic.dram_write);
    d("sg_read", a.traffic.sg_read, b.traffic.sg_read);
    d("sg_write", a.traffic.sg_write, b.traffic.sg_write);
    d("sg2_read", a.traffic.sg2_read, b.traffic.sg2_read);
    d("sg2_write", a.traffic.sg2_write, b.traffic.sg2_write);
    d("link_in", a.traffic.link_in, b.traffic.link_in);
    d("link_out", a.traffic.link_out, b.traffic.link_out);
}

double
fresh_energy(const flat::AccelConfig& accel,
             const flat::ActivityCounts& activity, Tracer& tracer,
             std::uint64_t op)
{
    const flat::EnergyTable table = flat::EnergyTable::for_accel(accel);
    Scoped span(tracer, "energy.estimate_energy", op);
    tracer.count("energy.estimate_energy.calls", 1);
    return flat::estimate_energy(table, activity).total();
}

} // namespace

void
CheckTally::fail(const std::string& what)
{
    if (hard.size() < kKeptMessages) {
        hard.push_back(what);
    }
    ++hard_count;
}

bool
same_bits(double a, double b)
{
    std::uint64_t x = 0;
    std::uint64_t y = 0;
    std::memcpy(&x, &a, sizeof x);
    std::memcpy(&y, &b, sizeof y);
    return x == y;
}

std::string
reprice_attention(const flat::AccelConfig& accel,
                  const flat::AttentionDims& dims,
                  const flat::DsePoint& point, Tracer& tracer,
                  std::uint64_t op)
{
    if (point.style == nullptr) {
        return "answer carries no execution style";
    }
    flat::OperatorCost fresh;
    {
        Scoped span(tracer, "costmodel.model_attention", op);
        tracer.count("costmodel.model_attention.calls", 1);
        fresh = flat::model_attention(*point.style, accel, dims,
                                      point.dataflow);
    }
    FieldDiff d;
    diff_cost(d, point.cost, fresh);
    d("energy_j", fresh_energy(accel, fresh.activity, tracer, op),
      point.energy_j);
    return d.str();
}

std::string
reprice_gemm(const flat::AccelConfig& accel, const flat::Operator& op,
             const flat::OperatorDataflow& dataflow, double cycles,
             double energy_j, Tracer& tracer, std::uint64_t op_id)
{
    flat::OperatorCost fresh;
    {
        Scoped span(tracer, "costmodel.model_gemm_operator", op_id);
        tracer.count("costmodel.model_gemm_operator.calls", 1);
        fresh = flat::model_gemm_operator(accel, op, dataflow);
    }
    FieldDiff d;
    d("cycles", fresh.cycles, cycles);
    d("energy_j", fresh_energy(accel, fresh.activity, tracer, op_id),
      energy_j);
    return d.str();
}

std::string
point_tag(const flat::DsePoint& point)
{
    return std::string(point.style ? point.style->id() : "?") + ':' +
           point.dataflow.tag();
}

bool
judge(double answer, double reference, const std::string& answer_tag,
      const std::string& reference_tag, const std::string& what,
      CheckTally& tally)
{
    if (answer < reference) {
        std::ostringstream os;
        os.precision(17);
        os << what << ": answer " << answer
           << " beats the unpruned reference " << reference;
        tally.fail(os.str());
        return false;
    }
    if (answer > reference) {
        ++tally.suboptimal;
        tally.gap_max = std::max(tally.gap_max, answer / reference - 1.0);
        return true;
    }
    if (answer_tag != reference_tag) {
        ++tally.tag_mismatch;
    }
    return false;
}

void
audit_space(std::size_t evaluated, std::size_t pruned,
            std::size_t reference_evaluated, const std::string& what,
            CheckTally& tally)
{
    if (evaluated + pruned != reference_evaluated) {
        std::ostringstream os;
        os << what << ": evaluated " << evaluated << " + pruned " << pruned
           << " != unpruned space " << reference_evaluated;
        tally.fail(os.str());
    }
}

Outcome
Outcome::from_report(bool ok, const flat::ScopeReport& report)
{
    Outcome o;
    o.ok = ok;
    if (ok) {
        o.tag = report.la_dataflow_tag;
        o.cycles = report.cycles;
        o.energy_j = report.energy_j;
        o.runtime_s = report.runtime_s;
        o.dram_bytes = report.traffic.total_dram();
    }
    return o;
}

Outcome
Outcome::from_json(const flat::JsonValue& result)
{
    Outcome o;
    o.ok = result.member_string("status") == "ok";
    if (o.ok) {
        const flat::JsonValue* r = result.find("report");
        if (r == nullptr) {
            o.ok = false;
            return o;
        }
        o.tag = r->member_string("picked_dataflow");
        o.cycles = r->member_number("cycles");
        o.energy_j = r->member_number("energy_j");
        o.runtime_s = r->member_number("runtime_s");
        o.dram_bytes = r->member_number("dram_bytes");
    }
    return o;
}

void
compare_outcomes(const Outcome& expected, const Outcome& actual,
                 flat::Objective objective, const std::string& what,
                 CheckTally& tally)
{
    if (!expected.ok || !actual.ok) {
        tally.fail(what + ": point did not complete");
        return;
    }
    const double a = flat::objective_value(objective, expected.cycles,
                                           expected.energy_j);
    const double b =
        flat::objective_value(objective, actual.cycles, actual.energy_j);
    FieldDiff d;
    d("objective", a, b);
    if (expected.tag == actual.tag) {
        d("cycles", expected.cycles, actual.cycles);
        d("energy_j", expected.energy_j, actual.energy_j);
        d("runtime_s", expected.runtime_s, actual.runtime_s);
        d("dram_bytes", expected.dram_bytes, actual.dram_bytes);
    } else {
        ++tally.tag_mismatch;
    }
    if (!d.str().empty()) {
        tally.fail(what + ":" + d.str());
    }
}

void
check_serving(const flat::ServeReport& report,
              const std::vector<flat::Request>& requests,
              const std::string& what, CheckTally& tally)
{
    std::uint64_t tokens = 0;
    for (const flat::Request& r : requests) {
        tokens += r.output_tokens;
    }
    if (report.cancelled || report.completed != report.offered ||
        report.offered != requests.size()) {
        tally.fail(what + ": completed " + std::to_string(report.completed) +
                   " of " + std::to_string(report.offered) + " offered");
    }
    if (report.generated_tokens != tokens) {
        tally.fail(what + ": generated " +
                   std::to_string(report.generated_tokens) +
                   " tokens, trace asks for " + std::to_string(tokens));
    }
}

void
compare_serving(const flat::ServeReport& a, const flat::ServeReport& b,
                const std::string& what, CheckTally& tally)
{
    FieldDiff d;
    d("p50_s", a.p50_s, b.p50_s);
    d("p95_s", a.p95_s, b.p95_s);
    d("p99_s", a.p99_s, b.p99_s);
    d("mean_s", a.mean_s, b.mean_s);
    d("makespan_s", a.makespan_s, b.makespan_s);
    d("tokens_per_s", a.tokens_per_s, b.tokens_per_s);
    d("completed", static_cast<double>(a.completed),
      static_cast<double>(b.completed));
    d("prefill_steps", static_cast<double>(a.prefill_steps),
      static_cast<double>(b.prefill_steps));
    d("decode_steps", static_cast<double>(a.decode_steps),
      static_cast<double>(b.decode_steps));
    d("prefilled_tokens", static_cast<double>(a.prefilled_tokens),
      static_cast<double>(b.prefilled_tokens));
    d("generated_tokens", static_cast<double>(a.generated_tokens),
      static_cast<double>(b.generated_tokens));
    std::string diff = d.str();
    if (a.completion_order != b.completion_order) {
        diff += " completion_order";
    }
    if (!diff.empty()) {
        tally.fail(what + ":" + diff);
    }
}

} // namespace perfbench
