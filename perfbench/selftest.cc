/**
 * @file
 * Self-tests of the benchmark: the seeded generator, the answer checker
 * (by mutation of real answers) and the span recorder.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "arch/accel_config.h"
#include "check.h"
#include "common/json.h"
#include "costmodel/execution_style.h"
#include "dse/block_search.h"
#include "dse/search.h"
#include "gen.h"
#include "trace.h"
#include "workload/model_config.h"

namespace perfbench {
namespace {

// ------------------------------------------------------------- generator

TEST(Generator, SameSeedGivesIdenticalInputs)
{
    for (const WorkloadKind kind : all_workloads()) {
        const std::size_t ops = ops_for(kind, 2.0);
        EXPECT_EQ(generate(kind, 7, ops).describe(),
                  generate(kind, 7, ops).describe())
            << workload_name(kind);
    }
}

TEST(Generator, OtherSeedGivesOtherInputs)
{
    for (const WorkloadKind kind : all_workloads()) {
        const std::size_t ops = ops_for(kind, 2.0);
        EXPECT_NE(generate(kind, 7, ops).describe(),
                  generate(kind, 8, ops).describe())
            << workload_name(kind);
    }
}

TEST(Generator, EveryRunHasAtLeastHundredDistinctOps)
{
    for (const WorkloadKind kind : all_workloads()) {
        const Inputs in = generate(kind, 3, ops_for(kind, 0.1));
        EXPECT_GE(in.ops(), 100u) << workload_name(kind);
        std::set<std::string> seen;
        for (const DseQuery& q : in.dse) {
            EXPECT_TRUE(seen.insert(q.describe()).second) << q.describe();
        }
        for (const ServeQuery& q : in.serve) {
            EXPECT_TRUE(seen.insert(q.describe()).second) << q.describe();
        }
        std::set<std::string> points;
        for (const flat::SweepSpec& spec : in.sweep.specs) {
            for (const flat::SweepPoint& p : spec.expand()) {
                const std::string key = p.tag() + " " +
                                        flat::to_string(spec.scope) +
                                        (spec.quick ? " quick" : " full");
                EXPECT_TRUE(points.insert(key).second) << key;
            }
        }
    }
}

TEST(Generator, DseDrawCoversTheShapesTheCliAccepts)
{
    const Inputs in = generate(WorkloadKind::kDseCold, 11, 100);
    std::set<std::string> kinds, platforms, models, calls;
    std::set<int> objectives;
    for (const DseQuery& q : in.dse) {
        kinds.insert(shape_kind_name(q.shape.kind));
        platforms.insert(q.shape.platform);
        models.insert(q.shape.model);
        objectives.insert(static_cast<int>(q.objective));
        calls.insert(q.describe().substr(0, q.describe().find(' ')));
        EXPECT_GE(q.shape.batch, 1u);
        EXPECT_LE(q.shape.batch, 64u);
        EXPECT_GE(q.shape.seq, 256u);
        EXPECT_LE(q.shape.seq, 16384u);
    }
    EXPECT_EQ(kinds, (std::set<std::string>{"prefill", "decode", "cross",
                                            "windowed"}));
    EXPECT_EQ(platforms, (std::set<std::string>{"edge", "cloud"}));
    EXPECT_EQ(models.size(), 6u);
    EXPECT_TRUE(models.count("mistral")); // the GQA model
    EXPECT_LT(flat::model_by_name("mistral").kv_heads(),
              flat::model_by_name("mistral").num_heads);
    EXPECT_EQ(objectives.size(), 3u);
    EXPECT_EQ(calls,
              (std::set<std::string>{"attention", "block", "scaleout"}));
}

TEST(Generator, SweepHalfQuickAndResumeHalfIsSeeded)
{
    const Inputs in = generate(WorkloadKind::kSweepGrid, 5, 400);
    std::size_t quick = 0;
    for (const flat::SweepSpec& spec : in.sweep.specs) {
        quick += spec.quick ? spec.expand().size() : 0;
    }
    EXPECT_EQ(2 * quick, in.sweep.points());
    const auto half = resume_half(in.sweep, 5);
    EXPECT_EQ(half, resume_half(in.sweep, 5));
    EXPECT_NE(half, resume_half(in.sweep, 6));
    for (std::size_t i = 0; i < half.size(); ++i) {
        EXPECT_EQ(half[i].size(), in.sweep.specs[i].expand().size() / 2);
    }
}

// --------------------------------------------------------------- checker

struct Answer {
    flat::AccelConfig accel = flat::edge_accel();
    flat::AttentionDims dims;
    flat::AttentionSearchResult pruned;
    flat::AttentionSearchResult reference;
};

/** `flatsim --model M --platform edge --batch B --seq N --quick
 *  --style all --scope la --threads 1`, pruned and with --no-prune. */
Answer
search(const std::string& model, std::uint64_t batch, std::uint64_t seq)
{
    Answer a;
    a.dims = flat::AttentionDims::from_workload(
        flat::make_workload(flat::model_by_name(model), batch, seq));
    flat::AttentionSearchOptions o;
    o.styles = {"all"};
    o.quick = true;
    o.threads = 1;
    a.pruned = flat::search_attention(a.accel, a.dims, o);
    o.prune = false;
    a.reference = flat::search_attention(a.accel, a.dims, o);
    return a;
}

const Answer&
bert_answer()
{
    static const Answer a = search("bert", 2, 512);
    return a;
}

TEST(Checker, FreshAnswerReprices)
{
    const Answer& a = bert_answer();
    Tracer off(false);
    EXPECT_EQ(reprice_attention(a.accel, a.dims, a.pruned.best, off, 0), "");
}

TEST(Checker, OneUlpCyclesIsAHardFailure)
{
    const Answer& a = bert_answer();
    flat::DsePoint p = a.pruned.best;
    p.cost.cycles = std::nextafter(p.cost.cycles, INFINITY);
    Tracer off(false);
    EXPECT_NE(reprice_attention(a.accel, a.dims, p, off, 0), "");
    p = a.pruned.best;
    p.energy_j = std::nextafter(p.energy_j, 0.0);
    EXPECT_NE(reprice_attention(a.accel, a.dims, p, off, 0), "");
}

TEST(Checker, SwappedStyleIsAHardFailure)
{
    const Answer& a = bert_answer();
    Tracer off(false);
    std::size_t swaps = 0;
    for (const flat::ExecutionStyle* style : flat::execution_styles()) {
        if (style == a.pruned.best.style ||
            !style->admits(a.accel, a.dims, a.pruned.best.dataflow.cross)) {
            continue;
        }
        flat::DsePoint p = a.pruned.best;
        p.style = style;
        EXPECT_NE(reprice_attention(a.accel, a.dims, p, off, 0), "")
            << style->id();
        ++swaps;
    }
    EXPECT_GT(swaps, 0u);
}

TEST(Checker, SpaceOffByOneIsAHardFailure)
{
    const Answer& a = bert_answer();
    CheckTally ok;
    audit_space(a.pruned.evaluated, a.pruned.pruned, a.reference.evaluated,
                "bert", ok);
    EXPECT_TRUE(ok.ok());
    CheckTally off;
    audit_space(a.pruned.evaluated + 1, a.pruned.pruned,
                a.reference.evaluated, "bert", off);
    EXPECT_FALSE(off.ok());
}

TEST(Checker, GemmRepriceCatchesOneUlp)
{
    const flat::AccelConfig accel = flat::edge_accel();
    const flat::Workload w =
        flat::make_workload(flat::model_by_name("bert"), 2, 512);
    flat::BlockSearchOptions o;
    o.attention.quick = true;
    o.attention.threads = 1;
    o.op.quick = true;
    const flat::BlockSearchResult r = flat::search_block(accel, w, o);
    Tracer off(false);
    std::size_t gemms = 0;
    for (const flat::BlockLayerPlan& l : r.layers) {
        if (l.attention) {
            continue;
        }
        const flat::Operator* op = nullptr;
        for (const flat::Operator& candidate : w.ops) {
            op = candidate.name == l.name ? &candidate : op;
        }
        ASSERT_NE(op, nullptr);
        EXPECT_EQ(reprice_gemm(accel, *op, l.dataflow, l.cycles, l.energy_j,
                               off, 0),
                  "");
        EXPECT_NE(reprice_gemm(accel, *op, l.dataflow,
                               std::nextafter(l.cycles, INFINITY), l.energy_j,
                               off, 0),
                  "");
        ++gemms;
    }
    EXPECT_GT(gemms, 0u);
}

TEST(Checker, WorseAnswerIsSuboptimalNotHard)
{
    // The pruned/unpruned gap of the mistral/edge repro, in cycles.
    CheckTally t;
    EXPECT_TRUE(judge(2140127.232, 2139340.8, "seq:H", "fused:B", "repro", t));
    EXPECT_TRUE(t.ok());
    EXPECT_EQ(t.suboptimal, 1u);
    EXPECT_NEAR(t.gap_max, 2140127.232 / 2139340.8 - 1.0, 1e-12);
    EXPECT_EQ(t.tag_mismatch, 0u);
}

TEST(Checker, MistralEdgeReproIsNeverAHardFailure)
{
    const Answer a = search("mistral", 1, 512);
    const double got =
        a.pruned.best.objective_value(flat::Objective::kRuntime);
    const double want =
        a.reference.best.objective_value(flat::Objective::kRuntime);
    CheckTally t;
    judge(got, want, point_tag(a.pruned.best), point_tag(a.reference.best),
          "mistral/edge/b=1/n=512 quick", t);
    audit_space(a.pruned.evaluated, a.pruned.pruned, a.reference.evaluated,
                "mistral", t);
    EXPECT_TRUE(t.ok());
    EXPECT_EQ(t.suboptimal, got > want ? 1u : 0u);
    Tracer off(false);
    EXPECT_EQ(reprice_attention(a.accel, a.dims, a.pruned.best, off, 0), "");
}

TEST(Checker, BetterThanReferenceIsHard)
{
    CheckTally t;
    EXPECT_FALSE(judge(1.0, 2.0, "a", "a", "broken reference", t));
    EXPECT_FALSE(t.ok());
    EXPECT_EQ(t.suboptimal, 0u);
}

TEST(Checker, TieWithAnotherTagIsOnlyCounted)
{
    CheckTally t;
    judge(5.0, 5.0, "M/1x128", "B/1x128", "tie", t);
    EXPECT_TRUE(t.ok());
    EXPECT_EQ(t.tag_mismatch, 1u);
}

flat::JsonValue
sweep_result(double cycles, const std::string& tag)
{
    flat::JsonWriter j;
    j.begin_object();
    j.field("status", "ok");
    j.key("report");
    j.begin_object();
    j.field("picked_dataflow", tag);
    j.field("cycles", cycles);
    j.field("energy_j", 0.25);
    j.field("runtime_s", 0.001);
    j.field("dram_bytes", 4096.0);
    j.end_object();
    j.end_object();
    return flat::parse_json(j.str());
}

TEST(Checker, ResumedReportThatDiffersIsAHardFailure)
{
    const Outcome want = Outcome::from_json(sweep_result(1000.5, "M/x"));
    CheckTally same;
    compare_outcomes(want, Outcome::from_json(sweep_result(1000.5, "M/x")),
                     flat::Objective::kRuntime, "p", same);
    EXPECT_TRUE(same.ok());

    CheckTally ulp;
    compare_outcomes(
        want,
        Outcome::from_json(sweep_result(std::nextafter(1000.5, 0.0), "M/x")),
        flat::Objective::kRuntime, "p", ulp);
    EXPECT_FALSE(ulp.ok());

    CheckTally energy; // same tag: every field must match
    Outcome other = want;
    other.energy_j = 0.5;
    compare_outcomes(want, other, flat::Objective::kRuntime, "p", energy);
    EXPECT_FALSE(energy.ok());

    CheckTally flip; // equal objective under another winner: counted only
    compare_outcomes(want, Outcome::from_json(sweep_result(1000.5, "B/x")),
                     flat::Objective::kRuntime, "p", flip);
    EXPECT_TRUE(flip.ok());
    EXPECT_EQ(flip.tag_mismatch, 1u);

    CheckTally failed;
    Outcome not_ok = want;
    not_ok.ok = false;
    compare_outcomes(want, not_ok, flat::Objective::kRuntime, "p", failed);
    EXPECT_FALSE(failed.ok());
}

TEST(Checker, ServingInvariants)
{
    std::vector<flat::Request> reqs(3);
    for (auto& r : reqs) {
        r.output_tokens = 4;
    }
    flat::ServeReport rep;
    rep.offered = 3;
    rep.completed = 3;
    rep.generated_tokens = 12;
    CheckTally ok;
    check_serving(rep, reqs, "s", ok);
    EXPECT_TRUE(ok.ok());
    flat::ServeReport short_rep = rep;
    short_rep.completed = 2;
    CheckTally bad;
    check_serving(short_rep, reqs, "s", bad);
    EXPECT_FALSE(bad.ok());
    CheckTally diff;
    flat::ServeReport other = rep;
    other.p99_s = 1e-9;
    compare_serving(rep, other, "s", diff);
    EXPECT_FALSE(diff.ok());
}

// ----------------------------------------------------------------- trace

TEST(Trace, EverySpanClosesInsideItsParent)
{
    Tracer tr(true);
    {
        Scoped op(tr, "op", 1);
        {
            Scoped a(tr, "a", 1);
            Scoped b(tr, "b", 1);
        }
        Scoped c(tr, "c", 1);
    }
    ASSERT_EQ(tr.spans().size(), 4u);
    EXPECT_EQ(tr.spans()[1].parent, 0);
    EXPECT_EQ(tr.spans()[2].parent, 1);
    EXPECT_EQ(tr.spans()[3].parent, 0);
    EXPECT_EQ(check_nesting(tr.spans()), "");
    for (const Span& s : tr.spans()) {
        EXPECT_GE(s.end_ns, s.start_ns);
    }
}

TEST(Trace, NestingViolationsAreReported)
{
    Tracer tr(true);
    tr.add_for_test({"op", 0, 100, -1, 1});
    tr.add_for_test({"escapes", 50, 150, 0, 1});
    EXPECT_NE(check_nesting(tr.spans()), "");

    Tracer open(true);
    open.add_for_test({"op", 0, -1, -1, 1});
    EXPECT_NE(check_nesting(open.spans()), "");

    Tracer other_op(true);
    other_op.add_for_test({"op", 0, 100, -1, 1});
    other_op.add_for_test({"child", 10, 20, 0, 2});
    EXPECT_NE(check_nesting(other_op.spans()), "");
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren)
{
    Tracer tr(true);
    tr.add_for_test({"op", 0, 10'000'000, -1, 1});        // 10 ms
    tr.add_for_test({"a", 1'000'000, 4'000'000, 0, 1});   // 1..4 ms
    tr.add_for_test({"b", 3'000'000, 5'000'000, 0, 1});   // overlaps a
    tr.add_for_test({"a.x", 1'000'000, 2'000'000, 1, 1}); // grandchild
    EXPECT_DOUBLE_EQ(self_ms(tr.spans(), 0), 6.0);
    EXPECT_DOUBLE_EQ(self_ms(tr.spans(), 1), 2.0);
    const auto t = totals(tr.spans());
    EXPECT_EQ(t.at("a").count, 1u);
    EXPECT_DOUBLE_EQ(t.at("op").total_ms, 10.0);
}

TEST(Trace, DisabledTracerRecordsNothing)
{
    Tracer tr(false);
    {
        Scoped s(tr, "op", 1);
        tr.count("n", 1);
    }
    EXPECT_TRUE(tr.spans().empty());
    EXPECT_TRUE(tr.counters().empty());
}

TEST(Trace, ChromeTraceJsonParses)
{
    Tracer tr(true);
    {
        Scoped op(tr, "op", 3);
        Scoped a(tr, "a", 3);
        tr.count("points", 7);
    }
    const flat::JsonValue doc =
        flat::parse_json(chrome_trace_json(tr.spans(), tr.counters()));
    const flat::JsonValue* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->array.size(), 3u); // two spans + one counter
    EXPECT_EQ(events->array[0].member_string("ph"), "X");
    EXPECT_EQ(events->array[1].find("args")->member_number("parent"), 0.0);
    EXPECT_EQ(events->array[2].member_string("ph"), "C");
}

} // namespace
} // namespace perfbench
