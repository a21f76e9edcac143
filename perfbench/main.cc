/**
 * @file
 * flatbench: one workload run of the repository benchmark, in a fresh
 * process. It drives the simulator only through the public entry points
 * of its modules, times every call from outside, checks every answer
 * after the timed phase, and prints one JSON line of raw results that
 * perfbench/run.py turns into the benchmark's report.
 *
 *   flatbench --workload NAME --seed N --seconds S [--trace FILE]
 *             [--no-check] [--dir DIR] [--phase run|prepare|setup]
 *
 * --phase setup stops once the first op could be issued; --phase
 * prepare writes the sweep-resume journal (and the uninterrupted
 * report it is checked against) into DIR before the timed run.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check.h"
#include "common/json.h"
#include "common/run_journal.h"
#include "common/thread_pool.h"
#include "core/catalog.h"
#include "core/simulator.h"
#include "core/sweep.h"
#include "costmodel/execution_style.h"
#include "dse/block_search.h"
#include "dse/search.h"
#include "energy/energy_model.h"
#include "gen.h"
#include "scaleout/scaleout_model.h"
#include "scaleout/scaleout_search.h"
#include "serving/arrival.h"
#include "serving/serving.h"
#include "trace.h"
#include "workload/model_config.h"

// The eval cache is slated for removal; its statistics are read only
// while its header exists, so the benchmark builds on either side.
#if !defined(PERFBENCH_NO_CACHE_PROBE) && \
    __has_include("costmodel/eval_cache.h")
#include "costmodel/eval_cache.h"
#define PERFBENCH_CACHE_PROBE 1
#else
#define PERFBENCH_CACHE_PROBE 0
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
    WorkloadKind workload = WorkloadKind::kDseCold;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    std::string trace_file; ///< non-empty: traced run
    bool check = true;
    std::string dir = ".";
    std::string phase = "run";
};

Args
parse_args(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                throw std::invalid_argument(flag + " needs a value");
            }
            return argv[++i];
        };
        if (flag == "--workload") {
            a.workload = parse_workload(next());
        } else if (flag == "--seed") {
            a.seed = std::stoull(next());
        } else if (flag == "--seconds") {
            a.seconds = std::stod(next());
        } else if (flag == "--trace") {
            a.trace_file = next();
        } else if (flag == "--no-check") {
            a.check = false;
        } else if (flag == "--dir") {
            a.dir = next();
        } else if (flag == "--phase") {
            a.phase = next();
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    if (a.seconds <= 0.0) {
        throw std::invalid_argument("--seconds must be positive");
    }
    return a;
}

/** Worker threads of the untimed checks and references. */
unsigned
check_threads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::max(1u, std::min(4u, hw));
}

/**
 * Worker threads of the timed calls: two, not four. Every parallel
 * region waits for its slowest worker, so at four threads on a shared
 * 4-core host the timings follow the neighbours' load: with two busy
 * threads beside it, dse-cold's op_ms.p50 rose 64% at four threads and
 * not at all at two (sweep-grid's ops_per_s: -31% against -3%).
 */
unsigned
timed_threads()
{
    return std::min(2u, check_threads());
}

double
cpu_seconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
               1e6;
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double rank = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
ms_since(std::int64_t t0)
{
    return static_cast<double>(now_ns() - t0) / 1e6;
}

struct CacheSnapshot {
    double hits = 0.0;
    double misses = 0.0;
    double bytes = 0.0;
};

CacheSnapshot
cache_snapshot()
{
    CacheSnapshot s;
#if PERFBENCH_CACHE_PROBE
    const flat::CacheStats st = flat::EvalCache::instance().stats();
    s.hits = static_cast<double>(st.hits);
    s.misses = static_cast<double>(st.misses);
    s.bytes = static_cast<double>(st.bytes);
#endif
    return s;
}

/** Presets, energy tables, style registry and worker pool: what every
 *  workload needs before its first op. */
struct Env {
    std::map<std::string, flat::AccelConfig> accel;
    std::map<std::string, flat::EnergyTable> energy;
    unsigned timed_threads = 1;
    unsigned check_threads = 1;

    const flat::AccelConfig& platform(const std::string& name) const
    {
        return accel.at(name);
    }
};

Env
setup_env()
{
    Env env;
    env.timed_threads = timed_threads();
    env.check_threads = check_threads();
    env.accel.emplace("edge", flat::edge_accel());
    env.accel.emplace("cloud", flat::cloud_accel());
    for (const auto& [name, accel] : env.accel) {
        accel.validate();
        env.energy.emplace(name, flat::EnergyTable::for_accel(accel));
    }
    for (const flat::ModelConfig& m : flat::model_zoo()) {
        m.validate();
    }
    if (flat::execution_styles().empty()) {
        throw std::runtime_error("empty execution-style registry");
    }
    // The process-wide pool grows on demand; starting it at the timed
    // thread count keeps the timed calls on two workers. With four
    // started, sweep-grid's peak RSS rose from about 300 to 370-470 MiB
    // and moved with the seed.
    flat::parallel_for(env.timed_threads, env.timed_threads,
                       [](std::size_t) {});
    return env;
}

/** Everything one run measured. */
struct Run {
    unsigned threads = 1;   ///< worker threads of the timed calls
    std::size_t attempted = 0;
    std::size_t failed = 0; ///< ops that threw or did not complete
    std::vector<double> op_ms;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double rss_mb = 0.0;
    CacheSnapshot cache_before;
    CacheSnapshot cache_after;
    CheckTally tally;
    std::vector<std::string> errors;
    /** Sweep workloads: wall of each evaluated point (ms). */
    std::vector<double> sweep_point_ms;
};

void
record_error(Run& run, const std::string& what)
{
    ++run.failed;
    if (run.errors.size() < 8) {
        run.errors.push_back(what);
    }
}

// ---------------------------------------------------------------- dse-cold

struct DseAnswer {
    bool ok = false;
    flat::Workload workload;
    flat::AttentionDims dims;
    flat::AttentionSearchResult attention;
    flat::BlockSearchResult block;
    flat::ScaleOutSearchResult scaleout;
};

flat::AttentionSearchOptions
attention_options(const DseQuery& q, unsigned threads, bool prune)
{
    flat::AttentionSearchOptions o;
    o.objective = q.objective;
    o.threads = threads;
    o.prune = prune;
    if (q.call == DseQuery::Call::kAttention) {
        o.styles = {"all"};
    }
    return o;
}

flat::ScaleOutSearchOptions
scaleout_options(const DseQuery& q, unsigned threads, bool prune)
{
    flat::ScaleOutSearchOptions o;
    o.attention = attention_options(q, threads, prune);
    o.fabric.topology = q.topology == "tree" ? flat::LinkTopology::kTree
                                             : flat::LinkTopology::kRing;
    o.device_counts = q.devices;
    return o;
}

flat::BlockSearchOptions
block_options(const DseQuery& q, unsigned threads, bool prune)
{
    flat::BlockSearchOptions o;
    o.attention = attention_options(q, threads, prune);
    o.op.objective = q.objective;
    return o;
}

DseAnswer
issue_dse(const Env& env, const DseQuery& q, unsigned threads, bool prune,
          Tracer& tr, std::uint64_t op)
{
    const flat::AccelConfig& accel = env.platform(q.shape.platform);
    DseAnswer a;
    {
        Scoped span(tr, "workload.build", op);
        a.workload = q.shape.build();
    }
    a.dims = flat::AttentionDims::from_workload(a.workload);
    switch (q.call) {
    case DseQuery::Call::kAttention: {
        Scoped span(tr, "dse.search_attention", op);
        a.attention = flat::search_attention(
            accel, a.dims, attention_options(q, threads, prune));
        a.ok = a.attention.found;
        break;
    }
    case DseQuery::Call::kBlock: {
        Scoped span(tr, "dse.search_block", op);
        a.block = flat::search_block(accel, a.workload,
                                     block_options(q, threads, prune));
        a.ok = !a.block.layers.empty();
        break;
    }
    case DseQuery::Call::kScaleout: {
        Scoped span(tr, "scaleout.search_scaleout", op);
        a.scaleout = flat::search_scaleout(
            accel, a.dims, scaleout_options(q, threads, prune));
        a.ok = a.scaleout.found;
        break;
    }
    }
    return a;
}

void
count_space(Tracer& tr, std::size_t evaluated, std::size_t pruned)
{
    tr.count("dse.evaluated", static_cast<double>(evaluated));
    tr.count("dse.points_space", static_cast<double>(evaluated + pruned));
}

/** Reprices an answer and compares it with the unpruned reference. */
void
check_dse(const Env& env, const DseQuery& q, const DseAnswer& a,
          const DseAnswer& ref, Tracer& tr, std::uint64_t op,
          CheckTally& tally)
{
    const flat::AccelConfig& accel = env.platform(q.shape.platform);
    const std::string what = q.describe();
    const auto hard_if = [&](const std::string& diff,
                             const std::string& where) {
        if (!diff.empty()) {
            tally.fail(what + " " + where + ":" + diff);
        }
    };
    switch (q.call) {
    case DseQuery::Call::kAttention: {
        hard_if(reprice_attention(accel, a.dims, a.attention.best, tr, op),
                "reprice");
        audit_space(a.attention.evaluated, a.attention.pruned,
                    ref.attention.evaluated, what, tally);
        judge(a.attention.best.objective_value(q.objective),
              ref.attention.best.objective_value(q.objective),
              point_tag(a.attention.best), point_tag(ref.attention.best),
              what, tally);
        count_space(tr, a.attention.evaluated, a.attention.pruned);
        break;
    }
    case DseQuery::Call::kBlock: {
        // One fused L-A layer per block, so at most one suboptimal count.
        const auto& layers = a.block.layers;
        const auto& ref_layers = ref.block.layers;
        if (layers.size() != ref_layers.size()) {
            tally.fail(what + ": layer count differs from the reference");
            break;
        }
        for (std::size_t i = 0; i < layers.size(); ++i) {
            const flat::BlockLayerPlan& l = layers[i];
            const flat::BlockLayerPlan& r = ref_layers[i];
            if (l.attention) {
                hard_if(reprice_attention(accel, a.dims, l.la, tr, op),
                        "L-A reprice");
                if (!same_bits(l.cycles, l.la.cost.cycles) ||
                    !same_bits(l.energy_j, l.la.energy_j)) {
                    tally.fail(what + ": L-A layer totals differ");
                }
                audit_space(l.evaluated, l.pruned, r.evaluated,
                            what + " L-A", tally);
                count_space(tr, l.evaluated, l.pruned);
                judge(l.la.objective_value(q.objective),
                      r.la.objective_value(q.objective), point_tag(l.la),
                      point_tag(r.la), what + " L-A", tally);
                continue;
            }
            const auto it = std::find_if(
                a.workload.ops.begin(), a.workload.ops.end(),
                [&](const flat::Operator& o) { return o.name == l.name; });
            if (it == a.workload.ops.end()) {
                tally.fail(what + ": unknown layer " + l.name);
                continue;
            }
            hard_if(reprice_gemm(accel, *it, l.dataflow, l.cycles,
                                 l.energy_j, tr, op),
                    l.name + " reprice");
            const double got =
                flat::objective_value(q.objective, l.cycles, l.energy_j);
            const double want =
                flat::objective_value(q.objective, r.cycles, r.energy_j);
            if (!same_bits(got, want)) {
                tally.fail(what + ": GEMM layer " + l.name +
                           " differs from the reference");
            }
        }
        break;
    }
    case DseQuery::Call::kScaleout: {
        const flat::ScaleOutSearchPoint& best = a.scaleout.best;
        flat::ScaleOutConfig fabric = scaleout_options(q, 1, true).fabric;
        fabric.devices = best.cost.devices;
        fabric.axis = best.cost.axis;
        flat::ScaleOutCost fresh;
        {
            Scoped span(tr, "scaleout.model_scaleout_attention", op);
            fresh = flat::model_scaleout_attention(accel, a.dims,
                                                   best.dataflow, fabric);
        }
        const double energy =
            flat::estimate_energy(env.energy.at(q.shape.platform),
                                  fresh.timeline.activity)
                .total() *
            best.cost.devices;
        if (!same_bits(fresh.cycles, best.cost.cycles) ||
            !same_bits(energy, best.total_energy_j) ||
            !same_bits(fresh.link_bytes_per_device,
                       best.cost.link_bytes_per_device)) {
            tally.fail(what + ": scale-out reprice differs");
        }
        if (a.scaleout.points.size() != ref.scaleout.points.size()) {
            tally.fail(what + ": scale-out point count differs");
            break;
        }
        for (std::size_t i = 0; i < a.scaleout.points.size(); ++i) {
            const auto& p = a.scaleout.points[i];
            audit_space(p.evaluated, p.pruned,
                        ref.scaleout.points[i].evaluated, what, tally);
            count_space(tr, p.evaluated, p.pruned);
        }
        judge(best.objective_value(q.objective),
              ref.scaleout.best.objective_value(q.objective),
              best.dataflow.tag(), ref.scaleout.best.dataflow.tag(), what,
              tally);
        break;
    }
    }
}

/** Unpruned reference searches run at the checks' thread count: the
 *  DSE promises the same optimum for any thread count, so only the
 *  pruning under test differs from the timed pass. */
void
run_dse_cold(const Env& env, const Inputs& in, const Args& args, Tracer& tr,
             Run& run)
{
    std::vector<DseAnswer> answers(in.dse.size());
    run.threads = env.timed_threads;
    run.cache_before = cache_snapshot();
    const double cpu0 = cpu_seconds();
    const std::int64_t wall0 = now_ns();
    for (std::size_t i = 0; i < in.dse.size(); ++i) {
        Scoped op_span(tr, "op", i);
        const std::int64_t t0 = now_ns();
        try {
            answers[i] =
                issue_dse(env, in.dse[i], env.timed_threads, true, tr, i);
            if (!answers[i].ok) {
                record_error(run, in.dse[i].describe() + ": no answer");
            }
        } catch (const std::exception& e) {
            record_error(run, in.dse[i].describe() + ": " + e.what());
        }
        run.op_ms.push_back(ms_since(t0));
    }
    run.wall_s = ms_since(wall0) / 1e3;
    run.cpu_s = cpu_seconds() - cpu0;
    run.rss_mb = peak_rss_mb();
    run.cache_after = cache_snapshot();
    run.attempted = in.dse.size();
    if (!args.check) {
        return;
    }
    for (std::size_t i = 0; i < in.dse.size(); ++i) {
        if (!answers[i].ok) {
            continue;
        }
        Scoped check_span(tr, "check", i);
        DseAnswer ref;
        {
            // The reference's own calls stay out of the timed-call spans.
            Scoped span(tr, "check.reference", i);
            Tracer untraced(false);
            ref = issue_dse(env, in.dse[i], env.check_threads, false,
                            untraced, i);
        }
        check_dse(env, in.dse[i], answers[i], ref, tr, i, run.tally);
    }
}

// ---------------------------------------------------------- sweep workloads

flat::SweepOptions
sweep_options(const Env& env)
{
    flat::SweepOptions o;
    o.threads = env.timed_threads;
    o.sim.threads = 1; // points run in parallel; each point is serial
    return o;
}

std::string
report_json(const flat::SweepReport& report, Tracer& tr, std::uint64_t op)
{
    Scoped span(tr, "core.report_json", op);
    flat::JsonWriter json;
    report.write_json(json);
    return json.str();
}

void
collect_points(const flat::SweepReport& report, Tracer& tr, Run& run)
{
    for (const flat::SweepPointResult& r : report.results) {
        if (!r.ok) {
            record_error(run, r.point.tag() + ": " + r.diag.message);
        }
        if (r.resumed) {
            continue;
        }
        run.op_ms.push_back(r.wall_ms);
        run.sweep_point_ms.push_back(r.wall_ms);
        if (r.ok) {
            count_space(tr, r.report.la_points_evaluated,
                        r.report.la_points_pruned);
        }
    }
}

/** A seeded sample of sweep points re-evaluated by a standalone
 *  Simulator::run must match the sweep's report. */
void
check_sweep_sample(const Env& env, const flat::SweepSpec& spec,
                   const flat::SweepReport& report, std::uint64_t seed,
                   Tracer& tr, std::uint64_t op, CheckTally& tally)
{
    Rng rng(seed ^ 0xc4ec4ULL ^ (op << 20));
    for (const flat::SweepPointResult& r : report.results) {
        if (rng.below(8) != 0) {
            continue;
        }
        const flat::SweepPoint& p = r.point;
        flat::SimOptions sim;
        sim.objective = spec.objective;
        sim.quick = spec.quick;
        sim.threads = 1;
        flat::ScopeReport fresh;
        {
            Scoped span(tr, "core.simulator_run", op);
            const flat::Simulator simulator(env.platform(p.platform));
            fresh = simulator.run(
                flat::make_workload(flat::model_by_name(p.model), p.batch,
                                    p.seq),
                spec.scope, flat::DataflowPolicy::parse(p.policy), sim);
        }
        compare_outcomes(Outcome::from_report(true, fresh),
                         Outcome::from_report(r.ok, r.report),
                         spec.objective, "sweep point " + p.tag(), tally);
    }
}

void
run_sweep_grid(const Env& env, const Inputs& in, const Args& args,
               Tracer& tr, Run& run)
{
    std::vector<flat::SweepReport> reports(in.sweep.specs.size());
    run.threads = env.timed_threads;
    run.cache_before = cache_snapshot();
    const double cpu0 = cpu_seconds();
    const std::int64_t wall0 = now_ns();
    for (std::size_t i = 0; i < in.sweep.specs.size(); ++i) {
        Scoped op_span(tr, "campaign", i);
        try {
            {
                Scoped span(tr, "core.run_sweep", i);
                reports[i] =
                    flat::run_sweep(in.sweep.specs[i], sweep_options(env));
            }
            report_json(reports[i], tr, i);
        } catch (const std::exception& e) {
            record_error(run, std::string("campaign: ") + e.what());
        }
    }
    run.wall_s = ms_since(wall0) / 1e3;
    run.cpu_s = cpu_seconds() - cpu0;
    run.rss_mb = peak_rss_mb();
    run.cache_after = cache_snapshot();
    run.attempted = in.sweep.points();
    for (const flat::SweepReport& r : reports) {
        collect_points(r, tr, run);
    }
    if (!args.check) {
        return;
    }
    for (std::size_t i = 0; i < reports.size(); ++i) {
        Scoped span(tr, "check", i);
        check_sweep_sample(env, in.sweep.specs[i], reports[i], args.seed, tr,
                           i, run.tally);
    }
}

std::string
journal_path(const Args& args, const char* stem, std::size_t i)
{
    return args.dir + "/" + stem + "-" + std::to_string(i) + ".jsonl";
}

std::string
read_file(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f) {
        throw std::runtime_error("cannot read " + path);
    }
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

void
write_file(const std::string& path, const std::string& text)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << text;
    if (!f.flush()) {
        throw std::runtime_error("cannot write " + path);
    }
}

/**
 * Runs the campaign uninterrupted with a journal, keeps its report as
 * the resume check's expectation, and writes the resume journal: the
 * header plus the point records of a seeded half of the points. DSE
 * slice records are dropped, so the other half is searched afresh.
 */
void
prepare_resume(const Env& env, const Inputs& in, const Args& args)
{
    const std::vector<std::vector<std::string>> half =
        resume_half(in.sweep, args.seed);
    for (std::size_t i = 0; i < in.sweep.specs.size(); ++i) {
        const flat::SweepSpec& spec = in.sweep.specs[i];
        flat::SweepOptions opt = sweep_options(env);
        const std::string full = journal_path(args, "full", i);
        flat::SweepReport report;
        {
            auto journal = flat::RunJournal::create(
                full, flat::sweep_journal_header(spec, opt.sim));
            opt.journal = journal.get();
            report = flat::run_sweep(spec, opt);
            journal->flush();
        }
        flat::JsonWriter json;
        report.write_json(json);
        write_file(journal_path(args, "uninterrupted", i), json.str());

        const std::set<std::string> keep(half[i].begin(), half[i].end());
        std::istringstream lines(read_file(full));
        std::string line;
        std::string out;
        bool header = true;
        while (std::getline(lines, line)) {
            if (header) {
                out += line + '\n';
                header = false;
                continue;
            }
            const flat::JsonValue rec = flat::parse_json(line);
            if (rec.member_string("scope") == "sweep" &&
                keep.count(rec.member_string("key")) > 0) {
                out += line + '\n';
            }
        }
        write_file(journal_path(args, "resume", i), out);
        std::remove(full.c_str());
    }
}

void
run_sweep_resume(const Env& env, const Inputs& in, const Args& args,
                 Tracer& tr, Run& run)
{
    std::vector<flat::SweepReport> reports(in.sweep.specs.size());
    std::vector<std::string> texts(in.sweep.specs.size());
    run.threads = env.timed_threads;
    run.cache_before = cache_snapshot();
    const double cpu0 = cpu_seconds();
    const std::int64_t wall0 = now_ns();
    for (std::size_t i = 0; i < in.sweep.specs.size(); ++i) {
        Scoped op_span(tr, "campaign", i);
        try {
            flat::SweepOptions opt = sweep_options(env);
            std::unique_ptr<flat::RunJournal> journal;
            {
                Scoped span(tr, "journal.open_resume", i);
                journal = flat::RunJournal::open_resume(
                    journal_path(args, "resume", i),
                    flat::sweep_journal_header(in.sweep.specs[i], opt.sim));
            }
            tr.count("journal.restored",
                     static_cast<double>(journal->restored()));
            opt.journal = journal.get();
            {
                Scoped span(tr, "core.run_sweep", i);
                reports[i] = flat::run_sweep(in.sweep.specs[i], opt);
                journal->flush();
            }
            texts[i] = report_json(reports[i], tr, i);
        } catch (const std::exception& e) {
            record_error(run, std::string("resume: ") + e.what());
        }
    }
    run.wall_s = ms_since(wall0) / 1e3;
    run.cpu_s = cpu_seconds() - cpu0;
    run.rss_mb = peak_rss_mb();
    run.cache_after = cache_snapshot();
    run.attempted = in.sweep.points();
    for (std::size_t i = 0; i < reports.size(); ++i) {
        // Restored points have no latency of their own: they cost the
        // journal read, which counts in ops_per_s and open_resume_ms.
        collect_points(reports[i], tr, run);
        std::ifstream f(journal_path(args, "resume", i),
                        std::ios::binary | std::ios::ate);
        tr.count("journal.bytes", static_cast<double>(f.tellg()));
    }
    if (!args.check) {
        return;
    }
    for (std::size_t i = 0; i < reports.size(); ++i) {
        Scoped span(tr, "check", i);
        const flat::JsonValue expected = flat::parse_json(
            read_file(journal_path(args, "uninterrupted", i)));
        const flat::JsonValue actual = flat::parse_json(texts[i]);
        const auto& want = expected.find("results")->array;
        const auto* got = actual.find("results");
        if (got == nullptr || got->array.size() != want.size()) {
            run.tally.fail("resumed report has another point count");
            continue;
        }
        for (std::size_t k = 0; k < want.size(); ++k) {
            const std::string tag = want[k].member_string("tag");
            if (got->array[k].member_string("tag") != tag) {
                run.tally.fail("resumed report reorders point " + tag);
                continue;
            }
            compare_outcomes(Outcome::from_json(want[k]),
                             Outcome::from_json(got->array[k]),
                             in.sweep.specs[i].objective, "resumed " + tag,
                             run.tally);
        }
    }
}

// ------------------------------------------------------------- serve-trace

flat::ServeOptions
serve_options(const ServeQuery& q, unsigned threads)
{
    flat::ServeOptions o;
    o.sched.policy = q.sched;
    o.sched.max_batch = q.max_batch;
    o.sim.threads = threads;
    return o;
}

/**
 * The timed calls price steps with a serial DSE, like the event loop
 * around them: at 4 threads the many small parallel regions made wall
 * time follow other load on the host while CPU per op stayed put.
 */
void
run_serve_trace(const Env& env, const Inputs& in, const Args& args,
                Tracer& tr, Run& run)
{
    struct Served {
        std::vector<flat::Request> requests;
        flat::ServeReport report;
        bool ok = false;
    };
    std::vector<Served> served(in.serve.size());
    std::vector<flat::ModelConfig> models;
    for (const ServeQuery& q : in.serve) {
        models.push_back(flat::model_by_name(q.model));
    }
    run.threads = 1;
    run.cache_before = cache_snapshot();
    const double cpu0 = cpu_seconds();
    const std::int64_t wall0 = now_ns();
    for (std::size_t i = 0; i < in.serve.size(); ++i) {
        const ServeQuery& q = in.serve[i];
        Scoped op_span(tr, "op", i);
        const std::int64_t t0 = now_ns();
        try {
            {
                Scoped span(tr, "serving.generate_arrivals", i);
                served[i].requests = flat::generate_arrivals(q.arrivals);
            }
            Scoped span(tr, "serving.run_serving", i);
            served[i].report =
                flat::run_serving(env.platform(q.platform), models[i],
                                  served[i].requests,
                                  serve_options(q, 1));
            served[i].ok = true;
        } catch (const std::exception& e) {
            record_error(run, q.describe() + ": " + e.what());
        }
        run.op_ms.push_back(ms_since(t0));
    }
    run.wall_s = ms_since(wall0) / 1e3;
    run.cpu_s = cpu_seconds() - cpu0;
    run.rss_mb = peak_rss_mb();
    run.cache_after = cache_snapshot();
    run.attempted = in.serve.size();
    for (const Served& s : served) {
        tr.count("serving.steps",
                 static_cast<double>(s.report.prefill_steps +
                                     s.report.decode_steps));
        tr.count("serving.lookups",
                 static_cast<double>(s.report.cost_lookups));
        tr.count("serving.memo_hits",
                 static_cast<double>(s.report.cost_memo_hits));
    }
    if (!args.check) {
        return;
    }
    for (std::size_t i = 0; i < in.serve.size(); ++i) {
        if (!served[i].ok) {
            continue;
        }
        const ServeQuery& q = in.serve[i];
        Scoped span(tr, "check", i);
        check_serving(served[i].report, served[i].requests, q.describe(),
                      run.tally);
        if (i % 16 == 0) { // thread-count independence on a sample
            const flat::ServeReport parallel = flat::run_serving(
                env.platform(q.platform), models[i], served[i].requests,
                serve_options(q, env.check_threads));
            compare_serving(served[i].report, parallel,
                            q.describe() + " at 1 vs 4 threads", run.tally);
        }
    }
}

// ----------------------------------------------------------------- report

double
span_p50_ms(const std::vector<Span>& spans, const std::string& name)
{
    std::vector<double> ms;
    for (const Span& s : spans) {
        if (s.name == name) {
            ms.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
        }
    }
    return percentile(ms, 0.5);
}

void
per_layer_metrics(const Run& run, const Tracer& tr, flat::JsonWriter& json)
{
    const std::map<std::string, SpanTotals> t = totals(tr.spans());
    const auto counter = [&](const std::string& name) {
        const auto it = tr.counters().find(name);
        return it == tr.counters().end() ? 0.0 : it->second;
    };
    const auto total_ms = [&](const std::string& name) {
        const auto it = t.find(name);
        return it == t.end() ? 0.0 : it->second.total_ms;
    };
    const auto mean_us = [&](const std::string& name) {
        const auto it = t.find(name);
        return it == t.end() || it->second.count == 0
                   ? 0.0
                   : it->second.total_ms * 1e3 /
                         static_cast<double>(it->second.count);
    };
    const auto ratio = [](double a, double b) {
        return b > 0.0 ? a / b : 0.0;
    };
    const auto metric = [&](const char* name, double value, const char* unit) {
        json.key(name);
        json.begin_object();
        json.field("value", value);
        json.field("unit", unit);
        json.end_object();
    };
    const double evaluated = counter("dse.evaluated");
    const double search_ms = total_ms("dse.search_attention") +
                             total_ms("dse.search_block") +
                             total_ms("scaleout.search_scaleout") +
                             total_ms("core.run_sweep");
    const double steps = counter("serving.steps");
    const double cache_hits = run.cache_after.hits - run.cache_before.hits;
    const double cache_misses =
        run.cache_after.misses - run.cache_before.misses;

    metric("dse.points_space", counter("dse.points_space"), "count");
    metric("dse.evaluated_share",
           ratio(evaluated, counter("dse.points_space")), "ratio");
    metric("dse.us_per_point", ratio(search_ms * 1e3, evaluated), "us");
    metric("dse.attention_ms.p50",
           span_p50_ms(tr.spans(), "dse.search_attention"), "ms");
    metric("dse.block_ms.p50", span_p50_ms(tr.spans(), "dse.search_block"),
           "ms");
    metric("scaleout.search_ms.p50",
           span_p50_ms(tr.spans(), "scaleout.search_scaleout"), "ms");
    metric("dse.suboptimal", static_cast<double>(run.tally.suboptimal),
           "count");
    metric("dse.gap_max", run.tally.gap_max, "ratio");
    metric("dse.tag_mismatch", static_cast<double>(run.tally.tag_mismatch),
           "count");
    metric("costmodel.model_attention_us",
           mean_us("costmodel.model_attention"), "us");
    metric("costmodel.model_gemm_operator_us",
           mean_us("costmodel.model_gemm_operator"), "us");
    metric("energy.estimate_energy_us", mean_us("energy.estimate_energy"),
           "us");
    metric("core.sweep_point_ms.p50", percentile(run.sweep_point_ms, 0.5),
           "ms");
    metric("core.report_json_ms", mean_us("core.report_json") / 1e3, "ms");
    metric("serving.steps", steps, "count");
    metric("serving.us_per_step",
           ratio(total_ms("serving.run_serving") * 1e3, steps), "us");
    metric("serving.memo_hit_share",
           ratio(counter("serving.memo_hits"), counter("serving.lookups")),
           "ratio");
    metric("serving.arrivals_us", mean_us("serving.generate_arrivals"), "us");
    metric("journal.open_resume_ms", mean_us("journal.open_resume") / 1e3,
           "ms");
    metric("journal.restored", counter("journal.restored"), "count");
    metric("journal.bytes", counter("journal.bytes"), "bytes");
    metric("host.cpu_util",
           ratio(run.cpu_s, run.wall_s * static_cast<double>(run.threads)),
           "ratio");
    metric("costmodel.cache.hit_share",
           ratio(cache_hits, cache_hits + cache_misses), "ratio");
    metric("costmodel.cache.bytes", run.cache_after.bytes, "bytes");
    metric("ops_failed_share",
           ratio(static_cast<double>(run.failed + run.tally.suboptimal),
                 static_cast<double>(run.attempted)),
           "ratio");
}

void
end_to_end_metrics(const Run& run, flat::JsonWriter& json)
{
    const auto metric = [&](const char* name, double value, const char* unit) {
        json.key(name);
        json.begin_object();
        json.field("value", value);
        json.field("unit", unit);
        json.end_object();
    };
    const double ops = static_cast<double>(run.attempted);
    metric("ops_per_s", run.wall_s > 0.0 ? ops / run.wall_s : 0.0, "ops/s");
    metric("op_ms.p50", percentile(run.op_ms, 0.5), "ms");
    metric("op_ms.p90", percentile(run.op_ms, 0.9), "ms");
    metric("cpu_ms_per_op", ops > 0.0 ? run.cpu_s * 1e3 / ops : 0.0, "ms");
    metric("peak_rss_mb", run.rss_mb, "MiB");
    const double missed =
        static_cast<double>(run.failed + run.tally.suboptimal);
    metric("ops_failed_share", ops > 0.0 ? missed / ops : 0.0, "ratio");
}

int
bench_main(int argc, char** argv)
{
    const Args args = parse_args(argc, argv);
    const Env env = setup_env();
    const Inputs in = generate(args.workload, args.seed,
                               ops_for(args.workload, args.seconds));
    const std::int64_t ready_ns = now_ns();

    if (args.phase == "setup") {
        std::cout << "{\"ready_ns\":" << ready_ns << "}\n";
        return 0;
    }
    if (args.phase == "prepare") {
        if (args.workload != WorkloadKind::kSweepResume) {
            throw std::invalid_argument("--phase prepare is for sweep-resume");
        }
        prepare_resume(env, in, args);
        return 0;
    }
    if (args.phase != "run") {
        throw std::invalid_argument("unknown --phase " + args.phase);
    }

    Tracer tracer(!args.trace_file.empty());
    Run run;
    switch (args.workload) {
    case WorkloadKind::kDseCold:
        run_dse_cold(env, in, args, tracer, run);
        break;
    case WorkloadKind::kSweepGrid:
        run_sweep_grid(env, in, args, tracer, run);
        break;
    case WorkloadKind::kServeTrace:
        run_serve_trace(env, in, args, tracer, run);
        break;
    case WorkloadKind::kSweepResume:
        run_sweep_resume(env, in, args, tracer, run);
        break;
    }

    std::string nesting;
    if (tracer.enabled()) {
        nesting = check_nesting(tracer.spans());
        write_file(args.trace_file,
                   chrome_trace_json(tracer.spans(), tracer.counters()));
    }

    flat::JsonWriter json;
    json.begin_object();
    json.field("correct", run.tally.ok() && nesting.empty());
    json.field("attempted", static_cast<std::uint64_t>(run.attempted));
    json.field("failed", static_cast<std::uint64_t>(run.failed));
    json.key("metrics");
    json.begin_object();
    if (tracer.enabled()) {
        per_layer_metrics(run, tracer, json);
    } else {
        end_to_end_metrics(run, json);
    }
    json.end_object();
    json.field("ready_ns", ready_ns);
    json.field("checked", args.check);
    json.field("timed_s", run.wall_s);
    json.field("suboptimal", static_cast<std::uint64_t>(run.tally.suboptimal));
    json.key("hard_failures");
    json.begin_array();
    for (const std::string& h : run.tally.hard) {
        json.value(h);
    }
    if (!nesting.empty()) {
        json.value("trace: " + nesting);
    }
    json.end_array();
    json.key("errors");
    json.begin_array();
    for (const std::string& e : run.errors) {
        json.value(e);
    }
    json.end_array();
    json.key("fingerprint");
    json.begin_object();
    json.field("nproc", static_cast<std::uint64_t>(
                            std::thread::hardware_concurrency()));
    json.field("threads", static_cast<std::uint64_t>(run.threads));
    json.field("compiler", std::string("gcc-compatible ") + __VERSION__);
    json.field("build_type", PERFBENCH_BUILD_TYPE);
    json.field("cache_probe", PERFBENCH_CACHE_PROBE != 0);
    json.field("workload", workload_name(args.workload));
    json.field("rationale", workload_rationale(args.workload));
    json.field("seed", args.seed);
    json.end_object();
    json.end_object();
    std::cout << json.str() << std::endl;
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    try {
        return perfbench::bench_main(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "flatbench: " << e.what() << '\n';
        return 2;
    }
}
