#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <vector>

#include "app/cli_driver.h"
#include "bench.h"
#include "core/rankhow.h"
#include "inputs.h"

namespace perfbench {

// Each workload generates its inputs from options.seed, sets up, measures
// for options.seconds and fills `report`. Failures of single ops are
// counted in the report; a non-OK status means the run could not happen.
rankhow::Status RunOneshotExact(const RunOptions& options, Report* report);
rankhow::Status RunSymGd1m(const RunOptions& options, Report* report);
rankhow::Status RunSessionMix(const RunOptions& options, Report* report);

// ---- helpers shared by the workloads

// The paper's per-dataset numerical settings (Sec. VI-A).
rankhow::EpsilonConfig NbaEps();
rankhow::EpsilonConfig CsRankingsEps();
rankhow::EpsilonConfig SyntheticEps();

// The rankhow_cli load path: ReadCsvFile + AssembleCliProblem, each under
// its own span (util.csv_read, app.assemble) when `spans` is non-null.
rankhow::Result<rankhow::CliProblem> LoadRelation(const RelationFile& file,
                                                  SpanRecorder* spans,
                                                  int64_t op);

// Solver options every workload starts from: one thread, no wall-clock
// budget (results depend on node caps only), the given ε and node cap.
rankhow::RankHowOptions BaseSolverOptions(const rankhow::EpsilonConfig& eps,
                                          int64_t max_nodes);

// The public calls RankHow::SolveInBox makes, one at a time, each under its
// own span: PresolveIncumbent (only without initial weights),
// ResolveSolveStrategy, then SolveOptSpatial (core.spatial) or
// BuildOptModel (core.model_build) + SolveOptModelMilp (milp.search), both
// with verify=false, and finally VerifySolutionObjective (ranking.verify).
// `oracle` is the warm box-feasibility slot RankHow keeps per object.
// Solver counters (nodes, pivots, fixing, comparisons) accumulate into
// `counters`; a presolve that reaches its wall cap fails the run's checks.
rankhow::Result<rankhow::RankHowResult> TracedSolveInBox(
    const rankhow::OptProblem& problem, const rankhow::RankHowOptions& options,
    const rankhow::WeightBox& box, const std::vector<double>* initial_weights,
    std::unique_ptr<rankhow::BoxFeasibilityOracle>* oracle,
    SpanRecorder* spans, int64_t op, LayerValues* counters, Report* report);

// Per-layer metrics derived from TracedSolveInBox spans and counters, plus
// the set-up spans of LoadRelation.
LayerValues SolverLayers(const SpanRecorder& recorder, LayerValues& counters);

// True iff the two weight vectors are bit-for-bit equal.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
