/**
 * @file
 * Answer checks of the repository benchmark.
 *
 * Hard checks (a miss makes the run's outputs incorrect): reported
 * cycles, energy and traffic equal, bit for bit, a fresh scalar
 * model_attention / model_gemm_operator + estimate_energy of the
 * reported dataflow and style; evaluated + pruned equals the unpruned
 * reference's evaluated count; an answer never beats the reference.
 *
 * Answer quality (counted, never a hard error): an answer whose
 * objective is worse than the unpruned reference is `suboptimal`.
 * Winner tags are never compared in hard checks; equal-objective answers
 * with different tags are only counted (`tag_mismatch`), because the
 * winner among exact ties may depend on thread scheduling.
 */
#ifndef FLAT_PERFBENCH_CHECK_H
#define FLAT_PERFBENCH_CHECK_H

#include <cstddef>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/simulator.h"
#include "dse/search.h"
#include "energy/energy_model.h"
#include "serving/serving.h"

namespace perfbench {

class Tracer;

/** Outcome counts of one run's check pass. */
struct CheckTally {
    std::vector<std::string> hard; ///< hard failures (first few kept)
    std::size_t hard_count = 0;
    std::size_t suboptimal = 0;    ///< ops with a worse-than-reference answer
    double gap_max = 0.0;          ///< max answer/reference - 1
    std::size_t tag_mismatch = 0;  ///< equal objective, different winner

    void fail(const std::string& what);
    bool ok() const { return hard_count == 0; }
};

/** True when @p a and @p b have identical bits. */
bool same_bits(double a, double b);

/**
 * Reprices a reported attention point with a fresh scalar
 * model_attention of its dataflow and style plus estimate_energy, and
 * compares every cost field bit for bit. Returns "" on a match, else
 * what differs. Spans go to @p tracer under op id @p op.
 */
std::string reprice_attention(const flat::AccelConfig& accel,
                              const flat::AttentionDims& dims,
                              const flat::DsePoint& point, Tracer& tracer,
                              std::uint64_t op);

/** Same for one GEMM layer priced by model_gemm_operator. */
std::string reprice_gemm(const flat::AccelConfig& accel,
                         const flat::Operator& op,
                         const flat::OperatorDataflow& dataflow,
                         double cycles, double energy_j, Tracer& tracer,
                         std::uint64_t op_id);

/** Winner identity for tag_mismatch counting: "style:dataflow-tag". */
std::string point_tag(const flat::DsePoint& point);

/**
 * Compares an answer's objective with the unpruned reference's:
 * worse counts as suboptimal (gap recorded), better is a hard failure
 * (the reference is broken), equal with another winner tag counts a
 * tag mismatch. Returns true when the answer is suboptimal.
 */
bool judge(double answer, double reference, const std::string& answer_tag,
           const std::string& reference_tag, const std::string& what,
           CheckTally& tally);

/** evaluated + pruned must equal the unpruned reference's evaluated. */
void audit_space(std::size_t evaluated, std::size_t pruned,
                 std::size_t reference_evaluated, const std::string& what,
                 CheckTally& tally);

/** The report fields a sweep emits for one point. */
struct Outcome {
    bool ok = false;
    std::string tag; ///< picked dataflow
    double cycles = 0.0;
    double energy_j = 0.0;
    double runtime_s = 0.0;
    double dram_bytes = 0.0;

    static Outcome from_report(bool ok, const flat::ScopeReport& report);
    /** From one element of SweepReport::write_json's "results". */
    static Outcome from_json(const flat::JsonValue& result);
};

/**
 * Two evaluations of one point must agree: same status and, under the
 * sweep objective, the same objective value bit for bit; with the same
 * winner tag every field must match bit for bit, with another tag the
 * difference is counted as a tag mismatch.
 */
void compare_outcomes(const Outcome& expected, const Outcome& actual,
                      flat::Objective objective, const std::string& what,
                      CheckTally& tally);

/** Serving invariants: completed == offered and generated tokens ==
 *  the trace's output tokens. */
void check_serving(const flat::ServeReport& report,
                   const std::vector<flat::Request>& requests,
                   const std::string& what, CheckTally& tally);

/** Two serving reports of one trace must be identical (thread-count
 *  independence). */
void compare_serving(const flat::ServeReport& a, const flat::ServeReport& b,
                     const std::string& what, CheckTally& tally);

} // namespace perfbench

#endif // FLAT_PERFBENCH_CHECK_H
