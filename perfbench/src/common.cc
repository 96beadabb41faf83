#include <cstring>

#include "core/presolve.h"
#include "ranking/verifier.h"
#include "util/csv.h"
#include "util/string_util.h"
#include "workloads.h"

namespace perfbench {

using namespace rankhow;

EpsilonConfig NbaEps() {
  EpsilonConfig eps;
  eps.tie_eps = 5e-5;
  eps.eps1 = 1e-4;
  eps.eps2 = 0.0;
  return eps;
}

EpsilonConfig CsRankingsEps() {
  EpsilonConfig eps;
  eps.tie_eps = 5e-3;
  eps.eps1 = 1e-2;
  eps.eps2 = 0.0;
  return eps;
}

EpsilonConfig SyntheticEps() {
  EpsilonConfig eps;
  eps.tie_eps = 5e-6;
  eps.eps1 = 1e-5;
  eps.eps2 = 0.0;
  return eps;
}

Result<CliProblem> LoadRelation(const RelationFile& file, SpanRecorder* spans,
                                int64_t op) {
  Result<CsvTable> csv = Status::Internal("unread");
  {
    ScopedSpan span(spans, "util.csv_read", op);
    csv = ReadCsvFile(file.path);
  }
  if (!csv.ok()) return csv.status();
  ScopedSpan span(spans, "app.assemble", op);
  return AssembleCliProblem(*csv, file.spec);
}

RankHowOptions BaseSolverOptions(const EpsilonConfig& eps, int64_t max_nodes) {
  RankHowOptions options;
  options.eps = eps;
  options.num_threads = 1;
  options.time_limit_seconds = 0;
  options.max_nodes = max_nodes;
  return options;
}

Result<RankHowResult> TracedSolveInBox(
    const OptProblem& problem, const RankHowOptions& options,
    const WeightBox& box, const std::vector<double>* initial_weights,
    std::unique_ptr<BoxFeasibilityOracle>* oracle, SpanRecorder* spans,
    int64_t op, LayerValues* counters, Report* report) {
  Deadline deadline(options.time_limit_seconds);
  ExactSolveSeed seed;
  if (initial_weights != nullptr) {
    seed.warm_weights = *initial_weights;
  } else if (options.use_presolve) {
    ScopedSpan span(spans, "core.presolve", op);
    auto pre = PresolveIncumbent(problem, box,
                                 ClampedPresolveOptions(options, deadline));
    if (pre.ok() && pre->found()) seed.warm_weights = std::move(pre->weights);
    if (pre.ok() && pre->seconds >= options.presolve.time_budget_seconds) {
      report->FailCheck(StrFormat("presolve reached its %.1f s wall cap",
                                  options.presolve.time_budget_seconds));
    }
  }
  const SolveStrategy strategy = ResolveSolveStrategy(problem, options, box);
  RankHowOptions search = options;
  search.verify = false;
  LayerValues& c = *counters;
  RankHowResult result;
  if (strategy == SolveStrategy::kSpatial) {
    seed.box_oracle = EnsureWarmBoxOracle(problem, search, oracle);
    ScopedSpan span(spans, "core.spatial", op);
    RH_ASSIGN_OR_RETURN(result,
                        SolveOptSpatial(problem, search, box, seed, deadline));
    c["core.spatial_boxes"].value += result.stats.nodes_explored;
    ++c["core.spatial_boxes"].spans;
  } else {
    Result<OptModel> model = Status::Internal("unbuilt");
    {
      ScopedSpan span(spans, "core.model_build", op);
      model = BuildOptModel(problem, box, options.use_indicator_fixing,
                            options.use_strengthening_cuts,
                            options.use_tight_big_m);
    }
    if (!model.ok()) return model.status();
    {
      ScopedSpan span(spans, "milp.search", op);
      RH_ASSIGN_OR_RETURN(result, SolveOptModelMilp(problem, search, *model,
                                                    seed, deadline));
    }
    c["milp.nodes"].value += result.stats.nodes_explored;
    ++c["milp.nodes"].spans;
    c["lp.pivots"].value += result.stats.lp_iterations;
    c["lp.warm"].value += result.stats.lp_warm_solves;
    c["lp.cold"].value += result.stats.lp_cold_solves;
    c["core.fixed"].value += model->num_fixed_indicators;
    c["core.free"].value += model->num_free_indicators;
  }
  {
    ScopedSpan span(spans, "ranking.verify", op);
    RH_ASSIGN_OR_RETURN(
        VerificationReport verification,
        VerifySolutionObjective(*problem.data, *problem.given,
                                result.function.weights, problem.eps.tie_eps,
                                result.claimed_error, problem.objective));
    result.error = verification.exact_error;
    c["ranking.exact"].value += verification.exact_comparisons;
    c["ranking.total"].value += verification.total_comparisons;
    result.verification = std::move(verification);
  }
  result.strategy_used = strategy;
  return result;
}

namespace {

LayerValue Ratio(double num, double den, int64_t spans,
                 const std::string& note) {
  LayerValue v;
  v.value = den > 0 ? num / den : 0;
  v.spans = spans;
  v.note = den > 0 ? note : "absent: nothing to divide by (" + note + ")";
  return v;
}

}  // namespace

LayerValues SolverLayers(const SpanRecorder& recorder, LayerValues& counters) {
  LayerValues layers;
  layers["util.csv_read_ms"] = MeanSpanMs(recorder, "util.csv_read");
  layers["app.assemble_ms"] = MeanSpanMs(recorder, "app.assemble");
  layers["core.presolve_ms"] = MeanSpanMs(recorder, "core.presolve");
  layers["core.spatial_ms"] = MeanSpanMs(recorder, "core.spatial");
  layers["core.model_build_ms"] = MeanSpanMs(recorder, "core.model_build");
  layers["milp.search_ms"] = MeanSpanMs(recorder, "milp.search");
  layers["ranking.verify_ms"] = MeanSpanMs(recorder, "ranking.verify");
  const int64_t spatial = counters["core.spatial_boxes"].spans;
  const int64_t milp = counters["milp.nodes"].spans;
  layers["core.spatial_boxes"] =
      Ratio(counters["core.spatial_boxes"].value, spatial, spatial,
            "mean boxes per spatial solve");
  layers["milp.nodes"] = Ratio(counters["milp.nodes"].value, milp, milp,
                               "mean nodes per MILP solve");
  layers["lp.pivots"] = Ratio(counters["lp.pivots"].value, milp, milp,
                              "mean simplex pivots per MILP solve");
  layers["lp.pivots_per_node"] =
      Ratio(counters["lp.pivots"].value, counters["milp.nodes"].value, milp,
            "pivots / nodes over MILP solves");
  layers["lp.warm_share"] =
      Ratio(counters["lp.warm"].value,
            counters["lp.warm"].value + counters["lp.cold"].value, milp,
            "warm node LP solves / all node LP solves");
  layers["core.fixed_share"] =
      Ratio(counters["core.fixed"].value,
            counters["core.fixed"].value + counters["core.free"].value, milp,
            "fixed / (fixed + free) indicators over MILP model builds");
  layers["ranking.exact_cmp_share"] =
      Ratio(counters["ranking.exact"].value, counters["ranking.total"].value,
            layers["ranking.verify_ms"].spans,
            "exact-arithmetic comparisons / all comparisons");
  for (auto it = layers.begin(); it != layers.end();) {
    it = it->second.spans == 0 ? layers.erase(it) : std::next(it);
  }
  return layers;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace perfbench
