// Microbenchmarks (google-benchmark): throughput of the substrates the
// paper-scale experiments lean on — the simplex solver, indicator interval
// fixing, double/exact score ranking, and the exact arithmetic itself.
//
// Also runs (before the google-benchmark suite) a cold-start vs. warm-start
// node-resolve comparison mirroring what branch-and-bound does per node —
// fix/unfix a variable, re-solve — and writes the result as machine-readable
// BENCH_lp_warmstart.json so future PRs can track the perf trajectory.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench/harness.h"
#include "core/indicator_fixing.h"
#include "data/kernels.h"
#include "data/synthetic.h"
#include "util/thread_pool.h"
#include "lp/incremental.h"
#include "lp/simplex.h"
#include "math/dyadic.h"
#include "ranking/score_ranking.h"
#include "ranking/verifier.h"
#include "util/random.h"
#include "util/timer.h"

namespace rankhow {
namespace {

Dataset MakeData(int n, int m, uint64_t seed) {
  SyntheticSpec spec;
  spec.num_tuples = n;
  spec.num_attributes = m;
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

// ---------------------------------------------------------------------------
// Cold vs. warm node resolves.
//
// The model mimics a branch-and-bound node LP: binary-like [0,1] variables
// plus nonnegative "error" variables under random rows, minimized over
// positive error costs. Each step fixes or unfixes one binary — exactly the
// parent→child delta of the MILP search — and re-solves.

struct NodeResolveModel {
  LpModel lp;
  std::vector<int> binaries;
};

NodeResolveModel BuildNodeResolveModel(int num_binaries, int num_errors,
                                       int rows, uint64_t seed) {
  Rng rng(seed);
  NodeResolveModel m;
  LinearExpr objective;
  for (int i = 0; i < num_binaries; ++i) {
    m.binaries.push_back(m.lp.AddVariable(0, 1));
  }
  std::vector<int> errors;
  for (int i = 0; i < num_errors; ++i) {
    int e = m.lp.AddVariable(0, kInfinity);
    errors.push_back(e);
    objective += LinearExpr::Term(e, rng.NextUniform(1, 5));
  }
  for (int r = 0; r < rows; ++r) {
    LinearExpr row;
    for (int b : m.binaries) {
      if (rng.NextDouble() < 0.5) {
        row += LinearExpr::Term(b, rng.NextGaussian());
      }
    }
    // Every row is relaxed by one error variable, like the Equation-(2)
    // big-M rows relax into the per-tuple error terms.
    row -= LinearExpr::Term(errors[r % num_errors], 1.0);
    m.lp.AddConstraint(row, RelOp::kLe, rng.NextUniform(0.0, 0.5));
  }
  m.lp.SetObjective(objective, ObjectiveSense::kMinimize);
  return m;
}

/// One deterministic trajectory of `steps` fix/unfix bound flips. Returns
/// the visited fixing values so cold and warm replay identical work.
std::vector<std::pair<int, double>> FlipTrajectory(
    const NodeResolveModel& m, int steps, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<int, double>> flips;
  for (int s = 0; s < steps; ++s) {
    int var = m.binaries[rng.NextBelow(m.binaries.size())];
    double roll = rng.NextDouble();
    flips.emplace_back(var, roll < 0.4 ? 0.0 : roll < 0.8 ? 1.0 : -1.0);
  }
  return flips;  // -1 = unfix back to [0,1]
}

struct NodeResolveCost {
  double seconds = 0;
  int64_t pivots = 0;
  int64_t solves = 0;
};

NodeResolveCost RunNodeResolveCold(NodeResolveModel m,
                                   const std::vector<std::pair<int, double>>&
                                       flips) {
  SimplexSolver solver;
  NodeResolveCost cost;
  WallTimer timer;
  for (const auto& [var, value] : flips) {
    LpVariable& v = m.lp.mutable_variable(var);
    if (value < 0) {
      v.lower = 0;
      v.upper = 1;
    } else {
      v.lower = v.upper = value;
    }
    auto sol = solver.Solve(m.lp);
    ++cost.solves;
    if (sol.ok()) cost.pivots += sol->iterations;
  }
  cost.seconds = timer.ElapsedSeconds();
  return cost;
}

NodeResolveCost RunNodeResolveWarm(const NodeResolveModel& m,
                                   const std::vector<std::pair<int, double>>&
                                       flips,
                                   IncrementalLpStats* stats_out) {
  IncrementalLp inc(m.lp);
  NodeResolveCost cost;
  WallTimer timer;
  for (const auto& [var, value] : flips) {
    if (value < 0) {
      inc.SetVariableBounds(var, 0, 1);
    } else {
      inc.SetVariableBounds(var, value, value);
    }
    auto sol = inc.Solve();
    ++cost.solves;
    if (sol.ok()) cost.pivots += sol->iterations;
  }
  cost.seconds = timer.ElapsedSeconds();
  if (stats_out != nullptr) *stats_out = inc.stats();
  return cost;
}

/// Runs the comparison and writes BENCH_lp_warmstart.json next to the
/// binary. Returns true on success.
bool EmitWarmstartJson() {
  constexpr int kBinaries = 40;
  constexpr int kErrors = 12;
  constexpr int kRows = 80;
  constexpr int kSteps = 250;
  NodeResolveModel model =
      BuildNodeResolveModel(kBinaries, kErrors, kRows, /*seed=*/17);
  std::vector<std::pair<int, double>> flips =
      FlipTrajectory(model, kSteps, /*seed=*/23);

  NodeResolveCost cold = RunNodeResolveCold(model, flips);
  IncrementalLpStats warm_stats;
  NodeResolveCost warm = RunNodeResolveWarm(model, flips, &warm_stats);

  const double speedup = warm.seconds > 0 ? cold.seconds / warm.seconds : 0;
  const double pivot_ratio =
      warm.pivots > 0 ? static_cast<double>(cold.pivots) / warm.pivots : 0;
  std::printf(
      "[lp_warmstart] %d resolves on %d rows: cold %.3fs/%lld pivots, warm "
      "%.3fs/%lld pivots -> speedup %.2fx, pivot ratio %.2fx\n",
      kSteps, kRows, cold.seconds, (long long)cold.pivots, warm.seconds,
      (long long)warm.pivots, speedup, pivot_ratio);

  std::FILE* f = std::fopen("BENCH_lp_warmstart.json", "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"bench\": \"lp_warmstart\",\n");
  rankhow::bench::WriteBenchMetadataJson(
      f, /*threads_used=*/1, rankhow::bench::BenchTimestampUtc());
  std::fprintf(
      f,
      "  \"config\": {\"binaries\": %d, \"errors\": %d, \"rows\": %d, "
      "\"resolves\": %d},\n"
      "  \"cold\": {\"seconds\": %.6f, \"pivots\": %lld},\n"
      "  \"warm\": {\"seconds\": %.6f, \"pivots\": %lld, "
      "\"warm_solves\": %lld, \"cold_solves\": %lld, "
      "\"primal_pivots\": %lld, \"dual_pivots\": %lld, "
      "\"repair_pivots\": %lld, \"bound_flips\": %lld, "
      "\"rebuilds\": %lld},\n"
      "  \"speedup\": %.3f,\n"
      "  \"pivot_ratio\": %.3f\n"
      "}\n",
      kBinaries, kErrors, kRows, kSteps, cold.seconds,
      (long long)cold.pivots, warm.seconds, (long long)warm.pivots,
      (long long)warm_stats.warm_solves, (long long)warm_stats.cold_solves,
      (long long)warm_stats.primal_pivots, (long long)warm_stats.dual_pivots,
      (long long)warm_stats.repair_pivots, (long long)warm_stats.bound_flips,
      (long long)warm_stats.rebuilds, speedup, pivot_ratio);
  std::fclose(f);
  std::printf("(written to BENCH_lp_warmstart.json)\n");
  return true;
}

// ---------------------------------------------------------------------------
// Scoring kernels: scalar vs batched vs batched+parallel.
//
// The scalar baseline below is the pre-kernel hot path kept verbatim —
// row-at-a-time value() scoring with the certified error band, then one
// O(n) pivot scan per ranked tuple — exactly what ranking/verifier.cc did
// before it was rewired onto kernels::FusedExactRankPositions.

/// Pre-kernel scalar verification: scores + error bounds via value(), then
/// per-pivot linear scans with exact fallback inside the band.
std::vector<int> ScalarFusedVerifyBaseline(const Dataset& data,
                                           const std::vector<double>& w,
                                           const std::vector<int>& tuples,
                                           double tie_eps) {
  const int n = data.num_tuples();
  const int m = data.num_attributes();
  const double u = std::ldexp(1.0, -53);
  std::vector<double> scores(n, 0.0);
  std::vector<double> err(n, 0.0);
  for (int t = 0; t < n; ++t) {
    double sum = 0;
    double abs_sum = 0;
    for (int a = 0; a < m; ++a) {
      double term = w[a] * data.value(t, a);
      sum += term;
      abs_sum += std::abs(term);
    }
    scores[t] = sum;
    err[t] = (m + 3) * u * abs_sum;
  }
  std::vector<int> positions;
  positions.reserve(tuples.size());
  for (int r : tuples) {
    int beats = 0;
    for (int s = 0; s < n; ++s) {
      if (s == r) continue;
      double diff = scores[s] - scores[r];
      double band = err[s] + err[r];
      if (diff - tie_eps > band) {
        ++beats;
      } else if (diff - tie_eps < -band) {
        // certainly does not beat
      } else if (ExactScoreDiffSign(data, w, s, r, tie_eps) > 0) {
        ++beats;
      }
    }
    positions.push_back(beats + 1);
  }
  return positions;
}

/// Best-of-`reps` wall time of `fn` in seconds.
template <typename Fn>
double BestOf(int reps, Fn&& fn) {
  double best = 1e30;
  for (int i = 0; i < reps; ++i) {
    WallTimer timer;
    fn();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

/// Runs the scalar/batched/parallel comparison at n = 10^4..10^6 and writes
/// BENCH_scoring_kernels.json next to the binary. Returns true on success.
bool EmitScoringKernelsJson() {
  constexpr int kAttrs = 5;
  constexpr int kPivots = 100;
  constexpr double kTieEps = 1e-6;
  const int threads = ThreadPool::ResolveThreadCount(0);
  ThreadPool pool(threads);

  struct SizeResult {
    int n;
    double scalar_fused;
    double batched_fused;
    double parallel_fused;
    double scalar_scores;
    double batched_scores;
    double parallel_scores;
  };
  std::vector<SizeResult> results;
  double fused_speedup_at_1e5 = 0;

  for (int n : {10000, 100000, 1000000}) {
    Dataset data = MakeData(n, kAttrs, /*seed=*/29);
    std::vector<double> w = {0.25, 0.25, 0.2, 0.15, 0.15};
    std::vector<int> tuples;
    for (int i = 0; i < kPivots; ++i) tuples.push_back((i * 131) % n);
    const int reps = n >= 1000000 ? 2 : 3;

    // Plain w·A scoring, the innermost primitive.
    std::vector<double> scores(n);
    double scalar_scores = BestOf(reps, [&] {
      for (int t = 0; t < n; ++t) scores[t] = data.ScoreOf(t, w);
    });
    double batched_scores =
        BestOf(reps, [&] { kernels::BatchScores(data, w, scores.data()); });
    double parallel_scores = BestOf(
        reps, [&] { kernels::BatchScores(data, w, scores.data(), &pool); });

    // Fused score + exact-rank verification, the acceptance-criterion
    // kernel.
    auto exact_sign = [&](int s, int r) {
      return ExactScoreDiffSign(data, w, s, r, kTieEps);
    };
    std::vector<int> scalar_pos;
    double scalar_fused = BestOf(reps, [&] {
      scalar_pos = ScalarFusedVerifyBaseline(data, w, tuples, kTieEps);
    });
    kernels::ExactRankScratch scratch;
    std::vector<int> batched_pos;
    double batched_fused = BestOf(reps, [&] {
      kernels::FusedExactRankPositions(data, w, tuples, kTieEps, exact_sign,
                                       &scratch, &batched_pos);
    });
    std::vector<int> parallel_pos;
    double parallel_fused = BestOf(reps, [&] {
      kernels::FusedExactRankPositions(data, w, tuples, kTieEps, exact_sign,
                                       &scratch, &parallel_pos, nullptr,
                                       nullptr, &pool);
    });
    if (scalar_pos != batched_pos || scalar_pos != parallel_pos) {
      std::fprintf(stderr,
                   "[scoring_kernels] VERDICT MISMATCH at n=%d — refusing to "
                   "report timings for wrong answers\n",
                   n);
      return false;
    }

    results.push_back({n, scalar_fused, batched_fused, parallel_fused,
                       scalar_scores, batched_scores, parallel_scores});
    if (n == 100000 && batched_fused > 0) {
      fused_speedup_at_1e5 = scalar_fused / batched_fused;
    }
    std::printf(
        "[scoring_kernels] n=%d k=%d: fused scalar %.4fs, batched %.4fs "
        "(%.1fx), parallel %.4fs; scores scalar %.4fs, batched %.4fs\n",
        n, kPivots, scalar_fused, batched_fused,
        batched_fused > 0 ? scalar_fused / batched_fused : 0, parallel_fused,
        scalar_scores, batched_scores);
  }

  std::FILE* f = std::fopen("BENCH_scoring_kernels.json", "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"bench\": \"scoring_kernels\",\n");
  rankhow::bench::WriteBenchMetadataJson(
      f, /*threads_used=*/threads, rankhow::bench::BenchTimestampUtc());
  std::fprintf(f,
               "  \"config\": {\"attributes\": %d, \"pivots\": %d, "
               "\"tie_eps\": %g},\n  \"sizes\": [\n",
               kAttrs, kPivots, kTieEps);
  for (size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    std::fprintf(
        f,
        "    {\"n\": %d,\n"
        "     \"fused_verification\": {\"scalar_seconds\": %.6f, "
        "\"batched_seconds\": %.6f, \"parallel_seconds\": %.6f, "
        "\"batched_speedup\": %.3f, \"parallel_speedup\": %.3f},\n"
        "     \"batch_scores\": {\"scalar_seconds\": %.6f, "
        "\"batched_seconds\": %.6f, \"parallel_seconds\": %.6f, "
        "\"batched_speedup\": %.3f}}%s\n",
        r.n, r.scalar_fused, r.batched_fused, r.parallel_fused,
        r.batched_fused > 0 ? r.scalar_fused / r.batched_fused : 0,
        r.parallel_fused > 0 ? r.scalar_fused / r.parallel_fused : 0,
        r.scalar_scores, r.batched_scores, r.parallel_scores,
        r.batched_scores > 0 ? r.scalar_scores / r.batched_scores : 0,
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"fused_batched_speedup_at_1e5\": %.3f\n}\n",
               fused_speedup_at_1e5);
  std::fclose(f);
  std::printf("(written to BENCH_scoring_kernels.json)\n");
  return true;
}

void BM_BatchScores(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Dataset data = MakeData(n, 5, 3);
  std::vector<double> w = {0.2, 0.2, 0.2, 0.2, 0.2};
  std::vector<double> out(n);
  for (auto _ : state) {
    kernels::BatchScores(data, w, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BatchScores)->Arg(10000)->Arg(100000);

void BM_ScalarScores(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Dataset data = MakeData(n, 5, 3);
  std::vector<double> w = {0.2, 0.2, 0.2, 0.2, 0.2};
  std::vector<double> out(n);
  for (auto _ : state) {
    for (int t = 0; t < n; ++t) out[t] = data.ScoreOf(t, w);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ScalarScores)->Arg(10000)->Arg(100000);

void BM_FusedExactRankPositions(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Dataset data = MakeData(n, 5, 7);
  std::vector<double> w = {0.25, 0.25, 0.2, 0.15, 0.15};
  std::vector<int> tuples;
  for (int i = 0; i < 100; ++i) tuples.push_back((i * 131) % n);
  auto exact_sign = [&](int s, int r) {
    return ExactScoreDiffSign(data, w, s, r, 1e-6);
  };
  kernels::ExactRankScratch scratch;
  std::vector<int> positions;
  for (auto _ : state) {
    kernels::FusedExactRankPositions(data, w, tuples, 1e-6, exact_sign,
                                     &scratch, &positions);
    benchmark::DoNotOptimize(positions.data());
  }
  state.SetItemsProcessed(state.iterations() * tuples.size() * n);
}
BENCHMARK(BM_FusedExactRankPositions)->Arg(10000)->Arg(100000);

void BM_NodeResolveCold(benchmark::State& state) {
  NodeResolveModel model = BuildNodeResolveModel(40, 12, 80, 17);
  std::vector<std::pair<int, double>> flips = FlipTrajectory(model, 25, 23);
  for (auto _ : state) {
    auto cost = RunNodeResolveCold(model, flips);
    benchmark::DoNotOptimize(cost);
  }
  state.SetItemsProcessed(state.iterations() * flips.size());
}
BENCHMARK(BM_NodeResolveCold);

void BM_NodeResolveWarm(benchmark::State& state) {
  NodeResolveModel model = BuildNodeResolveModel(40, 12, 80, 17);
  std::vector<std::pair<int, double>> flips = FlipTrajectory(model, 25, 23);
  for (auto _ : state) {
    auto cost = RunNodeResolveWarm(model, flips, nullptr);
    benchmark::DoNotOptimize(cost);
  }
  state.SetItemsProcessed(state.iterations() * flips.size());
}
BENCHMARK(BM_NodeResolveWarm);

void BM_SimplexSolve(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int rows = static_cast<int>(state.range(1));
  Rng rng(7);
  LpModel model;
  std::vector<int> vars(m);
  LinearExpr sum;
  for (int i = 0; i < m; ++i) {
    vars[i] = model.AddVariable(0, 1);
    sum += LinearExpr::Term(vars[i], 1.0);
  }
  model.AddConstraint(sum, RelOp::kEq, 1.0);
  for (int r = 0; r < rows; ++r) {
    LinearExpr e;
    double centroid = 0;
    for (int i = 0; i < m; ++i) {
      double c = rng.NextGaussian();
      e += LinearExpr::Term(vars[i], c);
      centroid += c / m;
    }
    model.AddConstraint(e, RelOp::kLe, centroid + 0.05);
  }
  LinearExpr obj;
  for (int i = 0; i < m; ++i) obj += LinearExpr::Term(vars[i],
                                                      rng.NextGaussian());
  model.SetObjective(obj);
  SimplexSolver solver;
  for (auto _ : state) {
    auto sol = solver.Solve(model);
    benchmark::DoNotOptimize(sol);
  }
}
BENCHMARK(BM_SimplexSolve)->Args({5, 50})->Args({8, 200})->Args({27, 400});

void BM_IndicatorFixingFullSimplex(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Dataset data = MakeData(n, 5, 3);
  std::vector<int> tuples = {0, 1, 2, 3, 4};
  WeightBox box = WeightBox::FullSimplex(5);
  for (auto _ : state) {
    auto fixing = ComputeIndicatorFixing(data, tuples, box, 1e-5, 0.0);
    benchmark::DoNotOptimize(fixing);
  }
  state.SetItemsProcessed(state.iterations() * tuples.size() * n);
}
BENCHMARK(BM_IndicatorFixingFullSimplex)->Arg(10000)->Arg(100000);

void BM_IndicatorFixingCell(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Dataset data = MakeData(n, 5, 3);
  std::vector<int> tuples = {0, 1, 2, 3, 4};
  WeightBox box = WeightBox::CellAround({0.2, 0.2, 0.2, 0.2, 0.2}, 0.01);
  for (auto _ : state) {
    auto fixing = ComputeIndicatorFixing(data, tuples, box, 1e-5, 0.0);
    benchmark::DoNotOptimize(fixing);
  }
  state.SetItemsProcessed(state.iterations() * tuples.size() * n);
}
BENCHMARK(BM_IndicatorFixingCell)->Arg(10000)->Arg(100000);

void BM_PositionError(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Dataset data = MakeData(n, 5, 5);
  Ranking given = PowerSumRanking(data, 3, 10);
  std::vector<double> w = {0.2, 0.2, 0.2, 0.2, 0.2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(PositionError(data, given, w, 1e-6));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PositionError)->Arg(10000)->Arg(100000);

void BM_ExactVerification(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Dataset data = MakeData(n, 5, 7);
  Ranking given = PowerSumRanking(data, 3, 10);
  std::vector<double> w = {0.25, 0.25, 0.2, 0.15, 0.15};
  for (auto _ : state) {
    auto report = VerifySolution(data, given, w, 1e-6, 0);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * given.k() * n);
}
BENCHMARK(BM_ExactVerification)->Arg(10000)->Arg(50000);

void BM_DyadicDotProduct(benchmark::State& state) {
  Rng rng(11);
  std::vector<double> w(8);
  std::vector<double> a(8);
  for (int i = 0; i < 8; ++i) {
    w[i] = rng.NextDouble();
    a[i] = rng.NextUniform(0, 30);
  }
  for (auto _ : state) {
    Dyadic sum;
    for (int i = 0; i < 8; ++i) {
      sum += Dyadic::FromDouble(w[i]) * Dyadic::FromDouble(a[i]);
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_DyadicDotProduct);

void BM_ScoreRanking(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Dataset data = MakeData(n, 5, 9);
  std::vector<double> w = {0.2, 0.2, 0.2, 0.2, 0.2};
  std::vector<double> scores = data.Scores(w);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScoreRankPositions(scores, 1e-6));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ScoreRanking)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace rankhow

// Custom main: the warm-start comparison + JSON emission run once up front,
// then the registered google-benchmark suite as usual.
int main(int argc, char** argv) {
  if (!rankhow::EmitWarmstartJson()) {
    std::fprintf(stderr, "failed to write BENCH_lp_warmstart.json\n");
  }
  if (!rankhow::EmitScoringKernelsJson()) {
    std::fprintf(stderr, "failed to write BENCH_scoring_kernels.json\n");
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
