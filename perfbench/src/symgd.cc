// symgd-1m: SYM-GD at the paper's Fig. 3j-l scale. One relation of 10^6
// uniform tuples over m=5 attributes, loaded from a ~100 MB CSV; the given
// ranking is the top-5 by sum(A^3). Each op is one full descent
// (Algorithm 1, cell size 0.01) from an ordinal-regression seed, bounded by
// an iteration cap and a per-cell node cap, single-threaded.
//
// The input is fixed: the workload seed does not change it. One relation and
// one ranking decide the cost of every op in a run; relations drawn from
// different seeds moved op latency by 10-30 % (model build and search time
// depend on the data), and cycling through several rankings made the median
// op jump between rankings. Both are far beyond the run-to-run noise.

#include <cstdio>
#include <memory>

#include "core/seeding.h"
#include "core/sym_gd.h"
#include "data/kernels.h"
#include "ranking/verifier.h"
#include "util/string_util.h"
#include "workloads.h"

namespace perfbench {

using namespace rankhow;

namespace {

constexpr int kTuples = 1000000;
constexpr int kAttributes = 5;
constexpr int kRankingLength = 5;
constexpr double kCellSize = 0.01;
// One cell per descent, one node per cell: how many cells a descent takes
// (one when the ordinal seed is already exact, two or three otherwise) and
// how many nodes a cell needs (1 to 20 at this size) vary with the relation
// and the ranking, which made op latency multimodal (1.5 s to 11 s per op).
// At these caps an op is the ordinal seed, one cell model build, its root
// node and verification -- the layers this workload exists to measure.
constexpr int kIterationCap = 1;
constexpr int64_t kCellNodeCap = 1;
constexpr uint64_t kRelationSeed = 0x51D6D1;
// Set-up repetitions before and after the measured phase (the machine's
// speed drifts within a run, so the reported median samples both ends).
// The one after replaces the relation the checks and the traced replay use.
constexpr int kSetupRepsBefore = 2;
constexpr int kSetupRepsAfter = 1;

SymGdOptions DescentOptions() {
  SymGdOptions options;
  options.cell_size = kCellSize;
  options.adaptive = false;
  options.max_iterations = kIterationCap;
  options.time_budget_seconds = 0;
  options.num_seeds = 1;
  options.solver = BaseSolverOptions(SyntheticEps(), kCellNodeCap);
  return options;
}

struct Descent {
  std::vector<double> seed;
  std::vector<double> weights;
  long error = -1;
  std::vector<long> trajectory;
  long nodes = 0;
};

std::string TrajectoryString(const std::vector<long>& t) {
  std::string s;
  for (long e : t) s += (s.empty() ? "" : ",") + std::to_string(e);
  return s;
}

// The untraced op: the public SymGd API.
Result<Descent> RunDescent(const Dataset& data, const Ranking& given) {
  const SymGdOptions options = DescentOptions();
  Descent d;
  RH_ASSIGN_OR_RETURN(d.seed, OrdinalRegressionSeed(data, given,
                                                    options.solver.eps.eps1));
  SymGd gd(data, given, options);
  RH_ASSIGN_OR_RETURN(SymGdResult r, gd.Run(d.seed));
  d.weights = r.function.weights;
  d.error = r.error;
  d.trajectory = r.error_trajectory;
  d.nodes = r.total_nodes;
  return d;
}

// The traced op: the same descent, replayed cell by cell through the calls
// RankHow::SolveInBox(WeightBox::CellAround(...)) makes (SymGd::Run's loop,
// Algorithm 1 without a time budget).
Result<Descent> TracedDescent(const Dataset& data, const Ranking& given,
                              SpanRecorder* spans, int64_t op,
                              LayerValues* counters, Report* report) {
  const SymGdOptions options = DescentOptions();
  Descent d;
  {
    ScopedSpan span(spans, "baselines.ordinal_seed", op);
    RH_ASSIGN_OR_RETURN(d.seed, OrdinalRegressionSeed(data, given,
                                                      options.solver.eps.eps1));
  }
  OptProblem problem;
  problem.data = &data;
  problem.given = &given;
  problem.eps = options.solver.eps;
  std::unique_ptr<BoxFeasibilityOracle> oracle;
  std::vector<double> current = d.seed;
  long current_error = -1;
  int iterations = 0;
  while (iterations < options.max_iterations) {
    Result<RankHowResult> step = Status::Internal("unsolved");
    {
      ScopedSpan span(spans, "core.symgd_cell", op);
      step = TracedSolveInBox(problem, options.solver,
                              WeightBox::CellAround(current, kCellSize),
                              &current, &oracle, spans, op, counters, report);
    }
    if (!step.ok()) return step.status();
    ++iterations;
    d.trajectory.push_back(step->error);
    d.nodes += step->stats.nodes_explored;
    const bool improved = current_error < 0 || step->error < current_error;
    if (current_error < 0 || step->error <= current_error) {
      current = step->function.weights;
      current_error = step->error;
    }
    if (!improved && iterations > 1) break;
    if (current_error == 0) break;
  }
  d.weights = current;
  d.error = current_error;
  (*counters)["core.symgd_cells"].value += iterations;
  ++(*counters)["core.symgd_cells"].spans;
  return d;
}

// The batched kernels on the op's own data and final weights.
void TraceKernels(const Dataset& data, const Ranking& given,
                  const std::vector<double>& w, SpanRecorder* spans,
                  int64_t op, LayerValues* counters) {
  const int n = data.num_tuples();
  std::vector<double> scores(n), lo(n), hi(n);
  {
    ScopedSpan span(spans, "data.scores", op);
    kernels::BatchScores(data, w, scores.data());
  }
  {
    ScopedSpan span(spans, "data.diff_range", op);
    kernels::DiffRangeAgainst(data, given.ranked_tuples().front(), lo.data(),
                              hi.data());
  }
  kernels::ExactRankScratch scratch;
  std::vector<int> positions;
  const double tie_eps = SyntheticEps().tie_eps;
  {
    ScopedSpan span(spans, "data.fused_rank", op);
    kernels::FusedExactRankPositions(
        data, w, given.ranked_tuples(), tie_eps,
        [&](int s, int r) {
          return ExactScoreDiffSign(data, w, s, r, tie_eps);
        },
        &scratch, &positions);
  }
  // Bytes the scoring kernel must touch: m input columns + one output.
  (*counters)["data.scores_bytes"].value +=
      static_cast<double>(n) * (data.num_attributes() + 1) * sizeof(double);
}

}  // namespace

Status RunSymGd1m(const RunOptions& options, Report* report) {
  RH_ASSIGN_OR_RETURN(
      RelationFile file,
      WriteSyntheticRelation(options.run_dir + "/symgd_1m.csv", kTuples,
                             kAttributes, kRankingLength,
                             kRelationSeed));
  SpanRecorder recorder;
  SpanRecorder* spans = options.trace ? &recorder : nullptr;

  CliProblem problem;
  std::vector<double> setup_times;
  auto set_up = [&]() -> Status {
    problem = CliProblem();  // free the previous copy before loading again
    const double t0 = Now();
    const int64_t rep = -1 - static_cast<int64_t>(setup_times.size());
    RH_ASSIGN_OR_RETURN(problem, LoadRelation(file, spans, rep));
    setup_times.push_back(Now() - t0);
    return Status::OK();
  };
  for (int rep = 0; rep < kSetupRepsBefore; ++rep) RH_RETURN_NOT_OK(set_up());
  const Ranking& given = problem.given;
  std::printf("symgd-1m: n=%d m=%d, top-%d by sum(A^3), cell %g, iteration "
              "cap %d, node cap %lld per cell\n",
              problem.data.num_tuples(), problem.data.num_attributes(),
              given.k(), kCellSize, kIterationCap,
              static_cast<long long>(kCellNodeCap));

  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<Descent> descents;
  std::vector<double> latencies;
  const double start = Now();
  while (Now() - start < budget) {
    const double t0 = Now();
    Result<Descent> d = RunDescent(problem.data, given);
    latencies.push_back(1e3 * (Now() - t0));
    ++report->attempted;
    if (!d.ok()) {
      report->FailOp("descent failed: " + d.status().ToString());
      descents.emplace_back();
      continue;
    }
    descents.push_back(*std::move(d));
  }
  const double measured_s = Now() - start;
  const LatencySummary latency = Summarize(latencies);
  std::printf("symgd-1m: %zu descents in %.3f s\n", descents.size(),
              measured_s);
  for (int rep = 0; rep < kSetupRepsAfter; ++rep) RH_RETURN_NOT_OK(set_up());
  const double setup_s = Median(setup_times);
  std::printf("symgd-1m: set-up repetitions (s): %s; median %.6f\n",
              FormatSeries(setup_times).c_str(), setup_s);

  // Correctness (outside the timed loop): every descent is identical to the
  // first, whose final weights re-verify exactly.
  const Descent& first = descents.front();
  for (size_t i = 1; i < descents.size(); ++i) {
    const Descent& d = descents[i];
    if (d.error >= 0 && (d.trajectory != first.trajectory ||
                         !SameBits(d.weights, first.weights))) {
      report->FailOp(StrFormat("descent %zu differs from descent 0", i));
    }
  }
  if (first.error >= 0) {
    Result<VerificationReport> v = VerifySolution(
        problem.data, given, first.weights, SyntheticEps().tie_eps,
        first.error);
    if (!v.ok() || !v->consistent || v->exact_error != first.error) {
      report->FailOp("final weights do not re-verify exactly");
    }
    std::printf("symgd-1m: trajectory %s, %ld nodes\n",
                TrajectoryString(first.trajectory).c_str(), first.nodes);
    report->results.push_back(
        StrFormat("symgd/top%d\terror=%ld trajectory=%s", given.k(),
                  first.error, TrajectoryString(first.trajectory).c_str()));
  }

  if (!options.trace) {
    SetEndToEnd(report, setup_s, measured_s,
                static_cast<int64_t>(descents.size()), latency);
    return Status::OK();
  }

  // Traced replay of the same descents; trajectories, seeds and final
  // weights must match the untraced ones bit for bit.
  LayerValues counters;
  std::vector<double> traced_ms;
  double traced_s = 0;
  for (size_t i = 0; i < descents.size(); ++i) {
    const int64_t op = static_cast<int64_t>(i);
    const double t0 = Now();
    Result<Descent> d = Status::Internal("unrun");
    {
      ScopedSpan span(spans, "op", op);
      d = TracedDescent(problem.data, given, spans, op, &counters, report);
    }
    const double op_s = Now() - t0;
    traced_s += op_s;
    traced_ms.push_back(1e3 * op_s);
    ++report->attempted;
    if (!d.ok()) {
      report->FailOp("traced descent failed: " + d.status().ToString());
      continue;
    }
    if (d->trajectory != descents[i].trajectory ||
        !SameBits(d->weights, descents[i].weights) ||
        !SameBits(d->seed, descents[i].seed)) {
      report->FailOp(StrFormat(
          "traced descent %zu differs from the untraced one (trajectory %s "
          "vs %s)",
          i, TrajectoryString(d->trajectory).c_str(),
          TrajectoryString(descents[i].trajectory).c_str()));
    }
    TraceKernels(problem.data, given, d->weights, spans, op, &counters);
  }
  const LatencySummary traced = Summarize(traced_ms);
  SetEndToEnd(report, setup_s, traced_s,
              static_cast<int64_t>(traced_ms.size()), traced);
  PrintOverhead("symgd-1m", descents.size() / measured_s, latency,
                traced_ms.size() / traced_s, traced);

  LayerValues layers = SolverLayers(recorder, counters);
  layers["baselines.ordinal_seed_ms"] =
      MeanSpanMs(recorder, "baselines.ordinal_seed");
  layers["core.symgd_cell_ms"] =
      MeanSpanMs(recorder, "core.symgd_cell", /*inclusive=*/true);
  const LayerValue& cells = counters["core.symgd_cells"];
  layers["core.symgd_cells"] =
      LayerValue{cells.spans > 0 ? cells.value / cells.spans : 0, cells.spans,
                 "mean cells per descent"};
  layers["data.scores_ms"] = MeanSpanMs(recorder, "data.scores");
  layers["data.diff_range_ms"] = MeanSpanMs(recorder, "data.diff_range");
  layers["data.fused_rank_ms"] = MeanSpanMs(recorder, "data.fused_rank");
  const auto all = recorder.Layers();
  auto it = all.find("data.scores");
  if (it != all.end() && it->second.self_ms > 0) {
    layers["data.scores_gbps_computed"] = LayerValue{
        counters["data.scores_bytes"].value / (it->second.self_ms * 1e-3) /
            1e9,
        it->second.spans,
        "computed bytes (m columns read + scores written) / kernel time"};
  }
  EmitLayers(layers,
             "layer not exercised by symgd-1m (no session, serving or "
             "network stack)",
             report);
  return recorder.WriteJsonl(options.run_dir + "/spans.jsonl");
}

}  // namespace perfbench
