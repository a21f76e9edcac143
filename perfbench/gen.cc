#include "gen.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "workload/model_config.h"

namespace perfbench {

namespace {

const std::vector<std::string> kModels = {"bert", "trxl", "flaubert",
                                          "t5",   "xlm",  "mistral"};
const std::vector<std::string> kPlatforms = {"edge", "cloud"};
const std::vector<flat::Objective> kObjectives = {
    flat::Objective::kRuntime, flat::Objective::kEnergy,
    flat::Objective::kEdp};

const char*
objective_name(flat::Objective objective)
{
    switch (objective) {
    case flat::Objective::kRuntime: return "runtime";
    case flat::Objective::kEnergy: return "energy";
    case flat::Objective::kEdp: return "edp";
    }
    return "?";
}

/** Draws `count` distinct values of `pool` in pool order. */
template <typename T>
std::vector<T>
pick_distinct(Rng& rng, std::vector<T> pool, std::size_t count)
{
    std::vector<std::size_t> idx(pool.size());
    for (std::size_t i = 0; i < idx.size(); ++i) {
        idx[i] = i;
    }
    for (std::size_t i = idx.size(); i > 1; --i) {
        std::swap(idx[i - 1], idx[rng.below(i)]);
    }
    idx.resize(std::min(count, idx.size()));
    std::sort(idx.begin(), idx.end());
    std::vector<T> out;
    for (const std::size_t i : idx) {
        out.push_back(pool[i]);
    }
    return out;
}

/**
 * `n` indices in [0, k), each value used floor(n/k) or ceil(n/k) times,
 * in seeded order. Every attribute of a stream is drawn this way, so
 * each seed gets the same mix (models, platforms, shape kinds, ...) and
 * only the pairing differs; that keeps run-to-run spread across seeds
 * close to the spread of one seed.
 */
std::vector<std::size_t>
balanced(Rng& rng, std::size_t n, std::size_t k)
{
    std::vector<std::size_t> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = i % k;
    }
    for (std::size_t i = n; i > 1; --i) {
        std::swap(out[i - 1], out[rng.below(i)]);
    }
    return out;
}

/** Sequence lengths 256..16K: powers of two and their 1.5x midpoints. */
std::uint64_t
seq_from(std::size_t step, Rng& rng)
{
    const std::uint64_t pow2 = std::uint64_t{256} << step; // step 0..6
    return (pow2 < 16384 && rng.below(3) == 0) ? pow2 + pow2 / 2 : pow2;
}

/**
 * The skeleton of the stream (each op's call, shape kind, objective,
 * model, platform, batch and sequence class) sets most of its host cost,
 * so it comes from `design`, the same for every seed; `rng` draws the
 * rest: sequence-length variants, cross and window lengths and the
 * scale-out settings. With a seeded skeleton the median op of a run
 * moved with the draw (median over mean op latency 0.80-0.94 across
 * seeds against 0.86-0.91 over repeats of one seed, op_ms.p50 spread
 * 0.13 over ten seeds); with a fixed one that ratio stayed in 0.89-0.93.
 */
std::vector<DseQuery>
generate_dse(Rng& design, Rng& rng, std::size_t ops)
{
    // 80% attention (prefill/decode/cross/windowed 8:8:4:4), 10% block,
    // 10% scale-out.
    const std::vector<std::size_t> call = balanced(design, ops, 10);
    const std::vector<std::size_t> kind = balanced(design, ops, 24);
    const std::vector<std::size_t> objective = balanced(design, ops, 3);
    // Host cost follows the model, platform and dims most, so those are
    // balanced jointly: model x platform, batch x seq. Two thirds of the
    // queries target the edge platform, whose full-menu searches cost
    // several times the cloud's; an even split would put the median op
    // in the gap between the two platforms' latencies.
    const std::vector<std::size_t> target =
        balanced(design, ops, kModels.size() * 3);
    const std::vector<std::size_t> dims = balanced(design, ops, 7 * 7);
    std::vector<DseQuery> out;
    std::set<std::string> seen;
    for (std::size_t i = 0; i < ops; ++i) {
        DseQuery q;
        q.call = call[i] < 8   ? DseQuery::Call::kAttention
                 : call[i] < 9 ? DseQuery::Call::kBlock
                               : DseQuery::Call::kScaleout;
        q.objective = kObjectives[objective[i]];
        Shape& s = q.shape;
        s.model = kModels[target[i] / 3];
        s.platform = kPlatforms[target[i] % 3 == 2 ? 1 : 0];
        s.batch = std::uint64_t{1} << (dims[i] / 7); // 1..64
        s.kind = ShapeKind::kPrefill;
        if (q.call == DseQuery::Call::kAttention) {
            s.kind = kind[i] < 8    ? ShapeKind::kPrefill
                     : kind[i] < 16 ? ShapeKind::kDecode
                     : kind[i] < 20 ? ShapeKind::kCross
                                    : ShapeKind::kWindowed;
        } else if (q.call == DseQuery::Call::kBlock && kind[i] % 2 == 1) {
            s.kind = ShapeKind::kDecode;
        }
        if (q.call == DseQuery::Call::kScaleout) {
            q.devices = pick_distinct<std::uint32_t>(rng, {2, 4, 8}, 2);
            q.topology = rng.below(2) == 0 ? "ring" : "tree";
        }
        std::size_t step = dims[i] % 7;
        do {
            s.seq = seq_from(step, rng);
            if (s.kind == ShapeKind::kCross) {
                s.kv_seq = seq_from(rng.below(7), rng);
            }
            if (s.kind == ShapeKind::kWindowed) {
                s.seq = std::max<std::uint64_t>(s.seq, 1024);
                s.window = std::uint64_t{64} << rng.below(4); // 64..512
            }
            step = rng.below(7); // redraw only on a repeat
        } while (!seen.insert(q.describe()).second);
        out.push_back(std::move(q));
    }
    return out;
}

/** As in generate_dse, the serving settings of each op come from
 *  `design` and the seed draws each op's arrival trace. */
std::vector<ServeQuery>
generate_serve(Rng& design, Rng& rng, std::size_t ops)
{
    // Serving cost depends most on model x platform (bert on edge costs
    // about ten times mistral), so the settings are balanced jointly
    // over five model/platform slots, bert on cloud taking two: the
    // median op then falls inside one class instead of between two.
    const std::vector<std::size_t> combo = balanced(design, ops, 5 * 8);
    const std::vector<std::size_t> lengths = balanced(design, ops, 4 * 3);
    const std::vector<std::size_t> rate = balanced(design, ops, 6);
    std::vector<ServeQuery> out;
    std::set<std::string> seen;
    for (std::size_t i = 0; i < ops; ++i) {
        ServeQuery q;
        const std::size_t slot = combo[i] / 8;
        const std::size_t c = combo[i] % 8;
        q.model = slot < 2 ? "mistral" : "bert";
        q.platform = (slot == 1 || slot == 4) ? "edge" : "cloud";
        q.sched = (c & 1) == 0 ? flat::SchedPolicy::kPrefillFirst
                               : flat::SchedPolicy::kDecodeFirst;
        q.max_batch = ((c >> 1) & 1) == 0 ? 4 : 16;
        flat::ArrivalOptions& a = q.arrivals;
        a.kind = ((c >> 2) & 1) == 0 ? flat::ArrivalKind::kPoisson
                                     : flat::ArrivalKind::kBursty;
        a.rate_rps = 2.0 * std::pow(2.0, static_cast<double>(rate[i]));
        a.prompt_tokens = std::uint64_t{128} << (lengths[i] / 3);
        a.output_tokens = std::uint64_t{8} << (lengths[i] % 3);
        a.requests = 12;
        a.burst_len = 6;
        a.burst_factor = 3.0;
        do {
            a.seed = rng.next() >> 11;
        } while (!seen.insert(q.describe()).second);
        out.push_back(std::move(q));
    }
    return out;
}

/** `count` values of a sorted pool, one from each of `count` equal bins. */
template <typename T>
std::vector<T>
spread_pick(Rng& rng, const std::vector<T>& pool, std::size_t count)
{
    count = std::min(count, pool.size());
    std::vector<T> out;
    for (std::size_t b = 0; b < count; ++b) {
        const std::size_t lo = b * pool.size() / count;
        const std::size_t hi = (b + 1) * pool.size() / count;
        out.push_back(pool[lo + rng.below(hi - lo)]);
    }
    return out;
}

/**
 * Paper-figure style grid: models x platforms x policies x seq x batch,
 * four sub-grids for {block, model} scope x {quick, full} menus, so a
 * seeded half of the points uses quick menus. Points of one sub-grid
 * share projection and FC shapes across policies and scopes. A seeded
 * half of the zoo goes to the full-menu block grid and the quick model
 * grid, the other half to the rest, so every model is searched once
 * with full and once with quick menus.
 */
SweepCampaign
generate_sweep(Rng& rng, std::size_t ops)
{
    const std::vector<std::string> fixed = {"flat-M", "flat-B",
                                            "flat-R64", "base",
                                            "base-M"};
    const std::vector<std::uint64_t> seqs = {
        256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096, 6144, 8192, 12288,
        16384};
    const std::vector<std::uint64_t> batches = {1,  2,  3,  4,  6, 8,
                                                12, 16, 24, 32, 48, 64};
    // models(3) x platforms(2) x policies(5) = 30 points per seq x batch.
    // Three fixed policies to two searched ones: the four classes
    // {quick, full} x {fixed, opt} differ in cost by up to 100x, and
    // equal shares would put the median point between two classes.
    const std::size_t per_spec = (ops + 3) / 4;
    const std::size_t cells = (per_spec + 29) / 30;
    const std::size_t n_seq = std::min<std::size_t>(
        seqs.size(), static_cast<std::size_t>(std::ceil(
                         std::sqrt(static_cast<double>(cells)))));
    const std::size_t n_batch =
        std::min<std::size_t>(batches.size(), (cells + n_seq - 1) / n_seq);

    const std::vector<std::string> half_a = pick_distinct(rng, kModels, 3);
    std::vector<std::string> half_b;
    for (const std::string& m : kModels) {
        if (std::find(half_a.begin(), half_a.end(), m) == half_a.end()) {
            half_b.push_back(m);
        }
    }
    // Energy-objective searches prune far less than runtime ones, so the
    // full-menu grids always get runtime and energy (in seeded order)
    // and the quick grids EDP and runtime: every seed then prices the
    // same amount of search work.
    const bool swap_full = rng.below(2) == 1;
    const bool swap_quick = rng.below(2) == 1;

    SweepCampaign campaign;
    for (const flat::Scope scope :
         {flat::Scope::kBlock, flat::Scope::kModel}) {
        for (const bool quick : {true, false}) {
            flat::SweepSpec spec;
            spec.scope = scope;
            spec.quick = quick;
            const bool first = (scope == flat::Scope::kBlock) !=
                               (quick ? swap_quick : swap_full);
            if (quick) {
                spec.objective = first ? flat::Objective::kEdp
                                       : flat::Objective::kRuntime;
            } else {
                spec.objective = first ? flat::Objective::kRuntime
                                       : flat::Objective::kEnergy;
            }
            spec.models =
                (quick == (scope == flat::Scope::kModel)) ? half_a : half_b;
            spec.platforms = kPlatforms;
            spec.policies = {"flat-opt", "base-opt"};
            for (const std::string& p : pick_distinct(rng, fixed, 3)) {
                spec.policies.push_back(p);
            }
            spec.seq_lens = spread_pick(rng, seqs, n_seq);
            spec.batches = spread_pick(rng, batches, n_batch);
            campaign.specs.push_back(std::move(spec));
        }
    }
    return campaign;
}

} // namespace

const std::vector<WorkloadKind>&
all_workloads()
{
    static const std::vector<WorkloadKind> kinds = {
        WorkloadKind::kDseCold, WorkloadKind::kSweepGrid,
        WorkloadKind::kServeTrace, WorkloadKind::kSweepResume};
    return kinds;
}

const char*
workload_name(WorkloadKind kind)
{
    switch (kind) {
    case WorkloadKind::kDseCold: return "dse-cold";
    case WorkloadKind::kSweepGrid: return "sweep-grid";
    case WorkloadKind::kServeTrace: return "serve-trace";
    case WorkloadKind::kSweepResume: return "sweep-resume";
    }
    return "?";
}

WorkloadKind
parse_workload(const std::string& name)
{
    for (const WorkloadKind kind : all_workloads()) {
        if (name == workload_name(kind)) {
            return kind;
        }
    }
    throw std::invalid_argument("unknown workload '" + name + "'");
}

const char*
workload_rationale(WorkloadKind kind)
{
    switch (kind) {
    case WorkloadKind::kDseCold:
        return "distinct exhaustive DSE queries: per-point cost modelling, "
               "pruning and search bookkeeping dominate, and no query "
               "repeats another";
    case WorkloadKind::kSweepGrid:
        return "a paper-figure sweep grid on two sweep threads whose "
               "points share projection and FC GEMM shapes across "
               "policies and scopes";
    case WorkloadKind::kServeTrace:
        return "serving traces: few distinct shapes, a step-cost memo, "
               "decode KV-cache phases, the analytic mapper and a serial "
               "event loop";
    case WorkloadKind::kSweepResume:
        return "the sweep-grid campaign resumed from a journal holding "
               "half its points: journal reads, appends and fsyncs";
    }
    return "?";
}

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
Rng::below(std::uint64_t n)
{
    return next() % n;
}

const char*
shape_kind_name(ShapeKind kind)
{
    switch (kind) {
    case ShapeKind::kPrefill: return "prefill";
    case ShapeKind::kDecode: return "decode";
    case ShapeKind::kCross: return "cross";
    case ShapeKind::kWindowed: return "windowed";
    }
    return "?";
}

flat::Workload
Shape::build() const
{
    const flat::ModelConfig m = flat::model_by_name(model);
    switch (kind) {
    case ShapeKind::kPrefill: return flat::make_workload(m, batch, seq);
    case ShapeKind::kDecode: return flat::make_decode_workload(m, batch, seq);
    case ShapeKind::kCross:
        return flat::make_cross_attention_workload(m, batch, seq, kv_seq);
    case ShapeKind::kWindowed:
        return flat::make_local_attention_workload(m, batch, seq, window);
    }
    throw std::logic_error("unreachable shape kind");
}

std::string
Shape::describe() const
{
    std::ostringstream os;
    os << model << '/' << platform << '/' << shape_kind_name(kind)
       << "/b=" << batch << "/n=" << seq;
    if (kind == ShapeKind::kCross) {
        os << "/kv=" << kv_seq;
    }
    if (kind == ShapeKind::kWindowed) {
        os << "/w=" << window;
    }
    return os.str();
}

std::string
DseQuery::describe() const
{
    std::ostringstream os;
    os << (call == Call::kAttention ? "attention"
           : call == Call::kBlock   ? "block"
                                    : "scaleout")
       << ' ' << shape.describe() << " obj=" << objective_name(objective);
    if (call == Call::kScaleout) {
        os << " devices=";
        for (std::size_t i = 0; i < devices.size(); ++i) {
            os << (i ? "," : "") << devices[i];
        }
        os << " topo=" << topology;
    }
    return os.str();
}

std::string
ServeQuery::describe() const
{
    std::ostringstream os;
    os << "serve " << model << '/' << platform << ' '
       << flat::to_string(arrivals.kind) << " rate=" << arrivals.rate_rps
       << " n=" << arrivals.requests << " prompt=" << arrivals.prompt_tokens
       << " out=" << arrivals.output_tokens
       << " burst=" << arrivals.burst_len << 'x' << arrivals.burst_factor
       << " seed=" << arrivals.seed << " sched=" << flat::to_string(sched)
       << " max_batch=" << max_batch;
    return os.str();
}

std::size_t
SweepCampaign::points() const
{
    std::size_t n = 0;
    for (const flat::SweepSpec& spec : specs) {
        n += spec.models.size() * spec.platforms.size() *
             spec.policies.size() * spec.seq_lens.size() *
             spec.batches.size();
    }
    return n;
}

std::string
SweepCampaign::describe() const
{
    std::ostringstream os;
    for (const flat::SweepSpec& spec : specs) {
        os << "sweep scope=" << flat::to_string(spec.scope)
           << " obj=" << objective_name(spec.objective)
           << (spec.quick ? " quick" : " full");
        for (const flat::SweepPoint& p : spec.expand()) {
            os << ' ' << p.tag();
        }
        os << '\n';
    }
    return os.str();
}

std::vector<std::vector<std::string>>
resume_half(const SweepCampaign& campaign, std::uint64_t seed)
{
    // Within each (policy, model, platform) group the points come in
    // seq x batch order; one point of each consecutive pair is kept, by
    // seed. Both halves then have the same mix of cheap and costly
    // points, so the resumed (timed) half costs the same for every seed.
    Rng rng(seed ^ 0x5eedf00dULL);
    std::vector<std::vector<std::string>> out;
    for (const flat::SweepSpec& spec : campaign.specs) {
        std::map<std::string, std::vector<std::string>> groups;
        for (const flat::SweepPoint& p : spec.expand()) {
            groups[p.policy + '/' + p.model + '/' + p.platform].push_back(
                p.tag());
        }
        std::vector<std::string> kept;
        for (const auto& [group, tags] : groups) {
            for (std::size_t i = 0; i + 1 < tags.size(); i += 2) {
                kept.push_back(tags[i + rng.below(2)]);
            }
        }
        out.push_back(std::move(kept));
    }
    return out;
}

std::size_t
Inputs::ops() const
{
    switch (kind) {
    case WorkloadKind::kDseCold: return dse.size();
    case WorkloadKind::kServeTrace: return serve.size();
    case WorkloadKind::kSweepGrid:
    case WorkloadKind::kSweepResume: return sweep.points();
    }
    return 0;
}

std::string
Inputs::describe() const
{
    std::ostringstream os;
    os << workload_name(kind) << '\n';
    for (const DseQuery& q : dse) {
        os << q.describe() << '\n';
    }
    for (const ServeQuery& q : serve) {
        os << q.describe() << '\n';
    }
    os << sweep.describe();
    return os.str();
}

std::size_t
ops_for(WorkloadKind kind, double seconds)
{
    // Ops per second of --seconds. On a 4-core host at the timed thread
    // count, the sweep-grid and serve-trace timed phases run about as
    // long as --seconds, where longer runs halved the run-to-run range
    // of CPU time per op; dse-cold's runs about 0.75 of it, since its
    // unpruned references add half as much again and its figures were
    // already steady. The count depends on the arguments alone, which
    // keeps every per-seed count reproducible.
    double rate = 0.0;
    switch (kind) {
    case WorkloadKind::kDseCold: rate = 8.0; break;
    case WorkloadKind::kServeTrace: rate = 10.0; break;
    case WorkloadKind::kSweepGrid: rate = 200.0; break;
    // Half the resumed campaign is restored, and its journal fsyncs make
    // it the noisiest workload, so its campaign is the largest.
    case WorkloadKind::kSweepResume: rate = 300.0; break;
    }
    return std::max<std::size_t>(
        100, static_cast<std::size_t>(std::lround(rate * seconds)));
}

Inputs
generate(WorkloadKind kind, std::uint64_t seed, std::size_t ops)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(kind));
    Rng design(0x5eedULL + static_cast<std::uint64_t>(kind));
    Inputs in;
    in.kind = kind;
    switch (kind) {
    case WorkloadKind::kDseCold: in.dse = generate_dse(design, rng, ops); break;
    case WorkloadKind::kServeTrace:
        in.serve = generate_serve(design, rng, ops);
        break;
    case WorkloadKind::kSweepGrid:
    case WorkloadKind::kSweepResume:
        // Both sweep workloads run the same campaign for a seed.
        rng = Rng(seed * 0x9e3779b97f4a7c15ULL + 0x51ee9ULL);
        in.sweep = generate_sweep(rng, ops);
        break;
    }
    return in;
}

} // namespace perfbench
