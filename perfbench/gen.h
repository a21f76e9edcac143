/**
 * @file
 * Seeded workload generator of the repository benchmark. Every input a
 * workload issues is drawn here from the run's seed alone, so the same
 * seed reproduces the same inputs byte for byte and the simulator under
 * test only ever sees the generated values.
 */
#ifndef FLAT_PERFBENCH_GEN_H
#define FLAT_PERFBENCH_GEN_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/sweep.h"
#include "dse/search.h"
#include "serving/arrival.h"
#include "serving/scheduler.h"
#include "workload/attention.h"

namespace perfbench {

/** The four benchmark workloads. */
enum class WorkloadKind { kDseCold, kSweepGrid, kServeTrace, kSweepResume };

/** Every workload, in the order the benchmark documents them. */
const std::vector<WorkloadKind>& all_workloads();

/** CLI name ("dse-cold", ...). */
const char* workload_name(WorkloadKind kind);

/** Parses a CLI name; throws std::invalid_argument when unknown. */
WorkloadKind parse_workload(const std::string& name);

/** One line on why the workload is in the benchmark. */
const char* workload_rationale(WorkloadKind kind);

/** Minimal SplitMix64: the benchmark owns its stream so that a change to
 *  the simulator's own generators never changes the inputs. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n);

  private:
    std::uint64_t state_;
};

/** Attention shape families the CLI accepts. */
enum class ShapeKind { kPrefill, kDecode, kCross, kWindowed };

const char* shape_kind_name(ShapeKind kind);

/** One attention-block shape: the arguments of a make_*_workload call. */
struct Shape {
    std::string model;    ///< zoo name
    std::string platform; ///< "edge" | "cloud"
    ShapeKind kind = ShapeKind::kPrefill;
    std::uint64_t batch = 1;
    std::uint64_t seq = 512;   ///< query length (decode: KV context)
    std::uint64_t kv_seq = 0;  ///< cross only
    std::uint64_t window = 0;  ///< windowed only

    /** Instantiates the block through the workload module. */
    flat::Workload build() const;

    std::string describe() const;
};

/** One dse-cold query (full menus, pruning on). */
struct DseQuery {
    enum class Call { kAttention, kBlock, kScaleout };
    Call call = Call::kAttention;
    Shape shape;
    flat::Objective objective = flat::Objective::kRuntime;
    /** Scale-out only: device counts to sweep and the fabric topology. */
    std::vector<std::uint32_t> devices;
    std::string topology = "ring";

    std::string describe() const;
};

/** One serve-trace op: an arrival trace plus the serving configuration. */
struct ServeQuery {
    std::string model;
    std::string platform;
    flat::ArrivalOptions arrivals;
    flat::SchedPolicy sched = flat::SchedPolicy::kPrefillFirst;
    std::uint64_t max_batch = 8;

    std::string describe() const;
};

/** A sweep campaign: sub-grids that each share one scope, objective and
 *  menu size (the sweep spec fixes those per run_sweep call). */
struct SweepCampaign {
    std::vector<flat::SweepSpec> specs;

    std::size_t points() const;
    std::string describe() const;
};

/** Seeded half of a campaign's points, by SweepPoint::tag(), one set per
 *  spec, matched in cost to the other half: the points the resume
 *  journal already holds. */
std::vector<std::vector<std::string>> resume_half(
    const SweepCampaign& campaign, std::uint64_t seed);

/** Inputs of one run. `ops` sets the stream length (at least 100). */
struct Inputs {
    WorkloadKind kind = WorkloadKind::kDseCold;
    std::vector<DseQuery> dse;
    std::vector<ServeQuery> serve;
    SweepCampaign sweep;

    std::size_t ops() const;
    /** Canonical text of every input, one line each. */
    std::string describe() const;
};

/** Ops one run issues for @p seconds of measurement (at least 100). */
std::size_t ops_for(WorkloadKind kind, double seconds);

Inputs generate(WorkloadKind kind, std::uint64_t seed, std::size_t ops);

} // namespace perfbench

#endif // FLAT_PERFBENCH_GEN_H
