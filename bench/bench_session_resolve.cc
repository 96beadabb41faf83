// bench_session_resolve — the SolveSession acceptance artifact: cold-solve
// vs. session re-solve latency over realistic constraint-edit scripts on the
// NBA and CSRankings simulators (the Sec. I RankHow what-if workflow: a user
// repeatedly edits weight constraints and re-solves).
//
// Per edit step the harness runs (a) a fresh RankHow::Solve over the
// accumulated problem — model rebuild + multi-start presolve + cold search —
// and (b) SolveSession::Solve after applying just the delta. Both must agree
// on the proven optimum (the randomized equivalence suite in
// tests/core/solve_session_test.cc proves this property exhaustively; here
// it doubles as a smoke check), and the per-step/total latencies land in
// BENCH_session_resolve.json.
//
// A second section measures the session *server* (PR 4): N scripted
// clients streaming the same edit script through a SessionRegistry over
// one copy-on-write dataset snapshot, at 1/4/16 simulated clients —
// queries/sec, wall seconds, and the resident-copy count (must stay 1: the
// script has no structural edits) land in BENCH_server_throughput.json.
//
// A third section measures cross-client warm seeding (PR 5): client A
// proves a region, then client B's first solve of the same base problem
// runs with per-session pools vs the registry-level shared incumbent pool
// (SharedIncumbentPool) — seconds, explored nodes, and draw counts land in
// BENCH_server_throughput.json's "cross_client_warm_seed" object, with an
// errors_match consistency bit (sharing must never move a proven optimum).
//
// A fourth section measures write-ahead journal overhead (the durability
// PR): the same scripted-client workload with the journal off, batched
// (the fsync_every=32 default), and fsync-every-record — wall seconds and
// the overhead percentages land in BENCH_server_throughput.json's
// "journal_overhead" object. The acceptance number: batched overhead
// under 10%.
//
// A fifth section measures the epoll reactor transport (the
// connection-scaling PR): >= 1000 mostly-idle loopback TCP connections
// multiplexed by one in-process ReactorServer while an active client works
// through the crowd — per-verb p50/p99 latencies from the `metrics` verb
// land in BENCH_server_throughput.json's "connection_scaling" object, and
// a text-vs-binary framing throughput ladder at 1/16/256 pipelined clients
// lands in "framing_throughput". The metadata records the transport mode
// and reactor event-loop count.
//
// A sixth section measures restart-warm seeding (the persistent warm-cache
// PR): a cold first solve publishes its proven winner through a
// fingerprint-keyed WarmCache, every in-memory structure is destroyed (a
// simulated process death), and a fresh registry over the reopened cache
// re-solves the same problem — cold vs warm seconds/nodes land in
// BENCH_server_throughput.json's "restart_warm_seed" object with an
// errors_match bit (the cache must never move a proven optimum) and the
// cache hit/loaded counters that prove the warm solve actually drew the
// dead process's record.
//
// Flags: --nba-n, --cs-n, --k, --budget (per solve), --seed, --serve-n
// (server-section dataset size), --serve-budget, --idle-conns,
// --frame-pings.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench/harness_include.h"
#include "core/solve_session.h"
#include "core/warm_cache.h"
#include "net/dial.h"
#include "net/frame.h"
#include "net/reactor.h"
#include "server/journal.h"
#include "server/session_registry.h"
#include "server/wire.h"
#include "util/histogram.h"

using namespace rankhow;
using namespace rankhow::bench;

namespace {

/// One scripted constraint edit: add a named bound or drop by name.
struct Edit {
  enum class Kind { kCold, kAdd, kDrop } kind = Edit::Kind::kCold;
  int attr = -1;
  bool is_min = true;
  double bound = 0;
  std::string name;
  std::string desc;
};

/// The shared edit-script shape: tighten, tighten further, tighten another
/// attribute, relax, tighten a third — covering every delta class the
/// session distinguishes except structural ones (those recompile either
/// way, so there is nothing interesting to measure).
std::vector<Edit> MakeScript(const Dataset& data) {
  auto name_of = [&](bool is_min, int attr) {
    return (is_min ? std::string("min_") : std::string("max_")) +
           data.attribute_name(attr);
  };
  std::vector<Edit> script;
  script.push_back({Edit::Kind::kCold, -1, true, 0, "", "cold solve"});
  script.push_back({Edit::Kind::kAdd, 0, true, 0.02, name_of(true, 0),
                    "min w0 0.02"});
  script.push_back({Edit::Kind::kAdd, 0, true, 0.05, name_of(true, 0),
                    "min w0 0.05"});
  script.push_back({Edit::Kind::kAdd, 1, false, 0.5, name_of(false, 1),
                    "max w1 0.5"});
  script.push_back({Edit::Kind::kDrop, 0, true, 0, name_of(true, 0),
                    "drop min w0"});
  script.push_back({Edit::Kind::kAdd, 2, true, 0.03, name_of(true, 2),
                    "min w2 0.03"});
  return script;
}

struct StepResult {
  std::string desc;
  double cold_seconds = 0;
  double session_seconds = 0;
  long cold_error = -1;
  long session_error = -1;
  bool cold_proven = false;
  bool session_proven = false;
  bool match = true;
};

struct ScriptRun {
  std::string dataset;
  int n = 0;
  int m = 0;
  int k = 0;
  std::vector<StepResult> steps;
  bool ok = true;
};

/// Runs the script against one dataset, cold and in-session, asserting the
/// proven optima agree at every step.
ScriptRun RunScript(const std::string& name, const Dataset& data,
                    const Ranking& given, EpsilonConfig eps, double budget) {
  ScriptRun run;
  run.dataset = name;
  run.n = data.num_tuples();
  run.m = data.num_attributes();
  run.k = given.k();

  RankHowOptions options;
  options.eps = eps;
  options.time_limit_seconds = budget;

  SolveSession session(data, given, options);
  WeightConstraintSet accumulated;  // what the cold solver rebuilds from

  for (const Edit& edit : MakeScript(data)) {
    StepResult step;
    step.desc = edit.desc;

    Status edit_status;
    if (edit.kind == Edit::Kind::kAdd) {
      WeightConstraint c;
      c.terms = {{edit.attr, 1.0}};
      c.op = edit.is_min ? RelOp::kGe : RelOp::kLe;
      c.rhs = edit.bound;
      c.name = edit.name;
      accumulated.Add(c);
      edit_status = session.AddWeightConstraint(std::move(c));
    } else if (edit.kind == Edit::Kind::kDrop) {
      accumulated.RemoveByName(edit.name);
      edit_status = session.RemoveWeightConstraint(edit.name);
    }
    if (!edit_status.ok()) {
      std::printf("  %s: edit failed: %s\n", edit.desc.c_str(),
                  edit_status.ToString().c_str());
      run.ok = false;
      break;
    }

    // Session re-solve (the delta path).
    auto sres = session.Solve();
    if (!sres.ok()) {
      std::printf("  %s: session solve failed: %s\n", edit.desc.c_str(),
                  sres.status().ToString().c_str());
      run.ok = false;
      break;
    }
    step.session_seconds = sres->seconds;
    step.session_error = sres->error;
    step.session_proven = sres->proven_optimal;

    // Cold solve: a fresh RankHow over the accumulated problem.
    {
      RankHow cold(data, given, options);
      cold.problem().constraints = accumulated;
      auto cres = cold.Solve();
      if (!cres.ok()) {
        std::printf("  %s: cold solve failed: %s\n", edit.desc.c_str(),
                    cres.status().ToString().c_str());
        run.ok = false;
        break;
      }
      step.cold_seconds = cres->seconds;
      step.cold_error = cres->error;
      step.cold_proven = cres->proven_optimal;
    }

    step.match = !(step.cold_proven && step.session_proven) ||
                 step.cold_error == step.session_error;
    if (!step.match) run.ok = false;
    std::printf("  %-14s cold %7.3fs (err %ld%s)   session %7.3fs "
                "(err %ld%s)   %5.1fx%s\n",
                step.desc.c_str(), step.cold_seconds, step.cold_error,
                step.cold_proven ? "*" : "", step.session_seconds,
                step.session_error, step.session_proven ? "*" : "",
                step.session_seconds > 0
                    ? step.cold_seconds / step.session_seconds
                    : 0.0,
                step.match ? "" : "  MISMATCH");
    run.steps.push_back(std::move(step));
  }
  const SolveSessionStats& st = session.stats();
  std::printf("  session stats: builds %lld, patches %lld, presolves %lld, "
              "pool hits %lld, bound seeds %lld\n",
              (long long)st.model_builds, (long long)st.model_patches,
              (long long)st.presolve_runs, (long long)st.pool_hits,
              (long long)st.bound_seeds);
  return run;
}

void EmitJson(const std::vector<ScriptRun>& runs, bool all_ok) {
  std::FILE* f = std::fopen("BENCH_session_resolve.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "failed to write BENCH_session_resolve.json\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"session_resolve\",\n");
  WriteBenchMetadataJson(f, /*threads_used=*/1, BenchTimestampUtc());
  std::fprintf(f, "  \"optima_match\": %s,\n  \"datasets\": [\n",
               all_ok ? "true" : "false");
  for (size_t d = 0; d < runs.size(); ++d) {
    const ScriptRun& run = runs[d];
    double cold_total = 0, session_total = 0;
    for (const StepResult& s : run.steps) {
      cold_total += s.cold_seconds;
      session_total += s.session_seconds;
    }
    // The acceptance number: the re-solve right after the first single
    // constraint edit (script step 2) vs. its cold solve.
    double single_edit_speedup = 0;
    if (run.steps.size() > 1 && run.steps[1].session_seconds > 0) {
      single_edit_speedup =
          run.steps[1].cold_seconds / run.steps[1].session_seconds;
    }
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"n\": %d, \"m\": %d, \"k\": %d,\n"
                 "     \"cold_total_seconds\": %.4f, "
                 "\"session_total_seconds\": %.4f,\n"
                 "     \"total_speedup\": %.3f, "
                 "\"single_edit_speedup\": %.3f,\n"
                 "     \"steps\": [\n",
                 run.dataset.c_str(), run.n, run.m, run.k, cold_total,
                 session_total,
                 session_total > 0 ? cold_total / session_total : 0.0,
                 single_edit_speedup);
    for (size_t i = 0; i < run.steps.size(); ++i) {
      const StepResult& s = run.steps[i];
      std::fprintf(
          f,
          "      {\"edit\": \"%s\", \"cold_seconds\": %.5f, "
          "\"session_seconds\": %.5f, \"cold_error\": %ld, "
          "\"session_error\": %ld, \"both_proven\": %s, \"match\": %s}%s\n",
          s.desc.c_str(), s.cold_seconds, s.session_seconds, s.cold_error,
          s.session_error,
          s.cold_proven && s.session_proven ? "true" : "false",
          s.match ? "true" : "false",
          i + 1 < run.steps.size() ? "," : "");
    }
    std::fprintf(f, "     ]}%s\n", d + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("(written to BENCH_session_resolve.json)\n");
}

// ---------------------------------------------------------------------------
// Multi-client server throughput.

struct ThroughputLevel {
  int clients = 0;
  int commands = 0;        // total across clients
  double seconds = 0;
  double queries_per_second = 0;
  int resident_copies = 0;
  bool optima_consistent = true;  // all clients proved identical optima
  bool ok = true;
};

SessionCommand MakeCommand(SessionCommand::Kind kind, std::string arg,
                           double value, int line) {
  SessionCommand cmd;
  cmd.kind = kind;
  cmd.arg = std::move(arg);
  cmd.value = value;
  cmd.line = line;
  return cmd;
}

/// The per-client wire script: one cold solve, then warm constraint edits
/// (no structural edits, so the COW snapshot must never fork).
std::vector<SessionCommand> ThroughputScript(const Dataset& data) {
  using K = SessionCommand::Kind;
  const std::string a0 = data.attribute_name(0);
  const std::string a1 = data.attribute_name(1);
  std::vector<SessionCommand> script;
  script.push_back(MakeCommand(K::kSolve, "", 0, 1));
  script.push_back(MakeCommand(K::kMinWeight, a0, 0.02, 2));
  script.push_back(MakeCommand(K::kMaxWeight, a1, 0.5, 3));
  script.push_back(MakeCommand(K::kDrop, "min_" + a0, 0, 4));
  script.push_back(MakeCommand(K::kMinWeight, a1, 0.03, 5));
  script.push_back(MakeCommand(K::kSolve, "", 0, 6));
  return script;
}

ThroughputLevel RunThroughputLevel(const Dataset& data, const Ranking& given,
                                   EpsilonConfig eps, double budget,
                                   int clients) {
  ThroughputLevel level;
  level.clients = clients;

  RankHowOptions solver;
  solver.eps = eps;
  solver.time_limit_seconds = budget;

  ServerOptions server_options;
  server_options.solver = solver;
  server_options.num_workers = 0;  // all hardware threads
  server_options.max_clients = clients;
  SessionRegistry registry(SharedDataset(Dataset(data)), Ranking(given),
                           /*labels=*/{}, server_options);

  std::vector<std::vector<SessionCommand>> scripts = {
      ThroughputScript(data)};
  WallTimer timer;
  auto runs = RunScriptedClients(&registry, scripts, clients);
  level.seconds = timer.ElapsedSeconds();
  if (!runs.ok()) {
    std::printf("  %2d clients: FAILED: %s\n", clients,
                runs.status().ToString().c_str());
    level.ok = false;
    return level;
  }
  for (const ScriptedClientRun& run : *runs) {
    level.commands += static_cast<int>(run.outcomes.size());
    if (!run.status.ok()) level.ok = false;
    // Identical scripts over one immutable snapshot: per-step proven
    // optima must agree across clients (the throughput run doubles as a
    // consistency smoke check). Failed steps are absent from outcomes, so
    // compare only the common prefix.
    const size_t steps =
        std::min(run.outcomes.size(), (*runs)[0].outcomes.size());
    for (size_t s = 0; s < steps; ++s) {
      const RankHowResult& mine = run.outcomes[s].result;
      const RankHowResult& c0 = (*runs)[0].outcomes[s].result;
      if (mine.proven_optimal && c0.proven_optimal &&
          mine.error != c0.error) {
        level.optima_consistent = false;
        level.ok = false;
      }
    }
  }
  level.queries_per_second =
      level.seconds > 0 ? level.commands / level.seconds : 0;
  level.resident_copies = registry.Stats().resident_dataset_copies;
  if (level.resident_copies != 1) level.ok = false;  // COW regression
  std::printf("  %2d clients: %3d commands in %7.3fs = %7.2f q/s  "
              "(resident copies %d%s)\n",
              clients, level.commands, level.seconds,
              level.queries_per_second, level.resident_copies,
              level.optima_consistent ? "" : ", OPTIMA MISMATCH");
  return level;
}

// ---------------------------------------------------------------------------
// Cross-client warm seeding (registry-level incumbent sharing).

struct WarmSeedRun {
  bool shared = false;
  double a_seconds = 0;        // client A's cold first solve (the baseline)
  double b_seconds = 0;        // client B's first solve over the same region
  long b_nodes = 0;            // nodes/boxes B explored (0 = closed at root)
  long a_error = -1, b_error = -1;
  bool proven = false;
  int64_t shared_draws = 0;
  bool ok = true;
};

/// Client A proves the region (a cold solve, then a tightened re-solve);
/// client B then opens and issues its first solve of the same base
/// problem. With sharing on, B's revalidation draws A's published winner
/// and the search should close at or near the root instead of re-earning
/// the incumbent cold.
WarmSeedRun RunWarmSeedVariant(const Dataset& data, const Ranking& given,
                               EpsilonConfig eps, double budget,
                               bool shared) {
  WarmSeedRun run;
  run.shared = shared;

  RankHowOptions solver;
  solver.eps = eps;
  solver.time_limit_seconds = budget;

  ServerOptions server_options;
  server_options.solver = solver;
  server_options.num_workers = 1;  // sequential: B solves strictly after A
  server_options.share_incumbents = shared;
  SessionRegistry registry(SharedDataset(Dataset(data)), Ranking(given),
                           /*labels=*/{}, server_options);

  struct Slot {
    Result<SessionStepOutcome> outcome = Status::Internal("unset");
  };
  auto submit = [&registry, &run](const std::string& client,
                                  SessionCommand cmd, Slot* slot) {
    Status submitted = registry.Submit(
        client, std::move(cmd),
        [slot](const std::string&, const Result<SessionStepOutcome>& out) {
          slot->outcome = out;
        });
    if (!submitted.ok()) run.ok = false;
  };

  if (!registry.Open("a").ok()) {
    run.ok = false;
    return run;
  }
  Slot a_cold, a_tight;
  submit("a", MakeCommand(SessionCommand::Kind::kSolve, "", 0, 1), &a_cold);
  submit("a",
         MakeCommand(SessionCommand::Kind::kMinWeight,
                     data.attribute_name(0), 0.02, 2),
         &a_tight);
  registry.Drain();
  if (!a_cold.outcome.ok() || !a_cold.outcome->result.proven_optimal ||
      !a_tight.outcome.ok()) {
    run.ok = false;
    return run;
  }
  run.a_seconds = a_cold.outcome->result.seconds;
  run.a_error = a_cold.outcome->result.error;

  if (!registry.Open("b").ok()) {
    run.ok = false;
    return run;
  }
  Slot b_first;
  submit("b", MakeCommand(SessionCommand::Kind::kSolve, "", 0, 1), &b_first);
  registry.Drain();
  if (!b_first.outcome.ok()) {
    run.ok = false;
    return run;
  }
  run.b_seconds = b_first.outcome->result.seconds;
  run.b_nodes = b_first.outcome->result.stats.nodes_explored;
  run.b_error = b_first.outcome->result.error;
  run.proven = b_first.outcome->result.proven_optimal;
  run.shared_draws = registry.Stats().shared_draws;
  // B solves the identical base problem: the optima must agree regardless
  // of sharing (candidates are revalidated, never trusted as bounds).
  if (run.proven && run.b_error != run.a_error) run.ok = false;

  std::printf("  %-10s A cold %7.3fs (err %ld)   B first %7.3fs "
              "(err %ld%s, %ld nodes, %lld draws)\n",
              shared ? "shared" : "per-session", run.a_seconds, run.a_error,
              run.b_seconds, run.b_error, run.proven ? "*" : "",
              run.b_nodes, (long long)run.shared_draws);
  return run;
}

// ---------------------------------------------------------------------------
// Restart-warm seeding (the persistent fingerprint-keyed warm cache).

struct RestartWarmRun {
  double cold_seconds = 0, warm_seconds = 0;
  long cold_nodes = -1, warm_nodes = -1;
  long cold_error = -1, warm_error = -1;
  bool cold_proven = false, warm_proven = false;
  int64_t cache_hits = 0, cache_loaded = 0;
  bool ok = true;
};

/// One registry lifetime: open a client, run its first solve, tear the
/// registry down. With `cache` set, the solve draws from / publishes to
/// the persistent warm cache exactly as a `--warm-cache-dir` server would.
void RunFirstSolve(const Dataset& data, const Ranking& given,
                   const RankHowOptions& solver, WarmCache* cache,
                   double* seconds, long* nodes, long* error, bool* proven,
                   bool* ok) {
  ServerOptions server_options;
  server_options.solver = solver;
  server_options.num_workers = 1;
  server_options.warm_cache = cache;
  SessionRegistry registry(SharedDataset(Dataset(data)), Ranking(given),
                           /*labels=*/{}, server_options);
  if (!registry.Open("a").ok()) {
    *ok = false;
    return;
  }
  struct Slot {
    Result<SessionStepOutcome> outcome = Status::Internal("unset");
  } slot;
  Status submitted = registry.Submit(
      "a", MakeCommand(SessionCommand::Kind::kSolve, "", 0, 1),
      [&slot](const std::string&, const Result<SessionStepOutcome>& out) {
        slot.outcome = out;
      });
  if (!submitted.ok()) {
    *ok = false;
    return;
  }
  registry.Drain();
  if (!slot.outcome.ok()) {
    *ok = false;
    return;
  }
  *seconds = slot.outcome->result.seconds;
  *nodes = slot.outcome->result.stats.nodes_explored;
  *error = slot.outcome->result.error;
  *proven = slot.outcome->result.proven_optimal;
}

/// The restart experiment: a cold first solve publishes its proven winner
/// through a warm cache in `dir`, then EVERYTHING in memory (registry,
/// pool, cache object) is destroyed — a simulated process death — and a
/// fresh registry over a reopened cache re-solves the same problem. The
/// warm first solve must prove the identical error while drawing the dead
/// process's record; node_ratio prices the head start.
RestartWarmRun RunRestartWarm(const Dataset& data, const Ranking& given,
                              EpsilonConfig eps, double budget,
                              const std::string& dir) {
  RestartWarmRun run;
  RankHowOptions solver;
  solver.eps = eps;
  solver.time_limit_seconds = budget;
  WarmCacheOptions cache_options;
  // The publish must be on disk before the simulated death below; a real
  // server gets the same guarantee from the writer thread having a whole
  // process lifetime to drain (and the chaos suite polls for it).
  cache_options.synchronous_appends = true;

  {
    auto cache = WarmCache::Open(dir, cache_options);
    if (!cache.ok()) {
      std::printf("  warm cache open failed: %s\n",
                  cache.status().ToString().c_str());
      run.ok = false;
      return run;
    }
    RunFirstSolve(data, given, solver, cache->get(), &run.cold_seconds,
                  &run.cold_nodes, &run.cold_error, &run.cold_proven,
                  &run.ok);
    // Scope end: registry and cache both destroyed. Only the file survives.
  }

  auto cache = WarmCache::Open(dir, cache_options);
  if (!cache.ok()) {
    run.ok = false;
    return run;
  }
  RunFirstSolve(data, given, solver, cache->get(), &run.warm_seconds,
                &run.warm_nodes, &run.warm_error, &run.warm_proven, &run.ok);
  WarmCacheStats cs = (*cache)->Stats();
  run.cache_hits = cs.hits;
  run.cache_loaded = cs.loaded;

  if (!run.cold_proven || !run.warm_proven ||
      run.cold_error != run.warm_error) {
    run.ok = false;  // the cache must never move a proven optimum
  }
  if (run.cache_loaded < 1 || run.cache_hits < 1) run.ok = false;
  std::printf("  cold %7.3fs (err %ld, %ld nodes)   restart-warm %7.3fs "
              "(err %ld, %ld nodes, %lld loaded, %lld hits)%s\n",
              run.cold_seconds, run.cold_error, run.cold_nodes,
              run.warm_seconds, run.warm_error, run.warm_nodes,
              (long long)run.cache_loaded, (long long)run.cache_hits,
              run.ok ? "" : "  ERROR");
  return run;
}

// ---------------------------------------------------------------------------
// Write-ahead journal overhead.

struct JournalOverheadRun {
  std::string mode;      // "off" | "batched" | "fsync_every_record"
  int fsync_every = -1;  // -1 = journal off
  double seconds = 0;
  int commands = 0;
  double queries_per_second = 0;
  int64_t records = 0;
  int64_t fsyncs = 0;
  bool ok = true;
};

/// The throughput workload (4 clients, the standard edit script) with the
/// registry journaling into a scratch directory at one fsync policy.
/// Everything but the journal pointer matches RunThroughputLevel, so the
/// seconds are comparable run-to-run and the delta prices the journal.
JournalOverheadRun RunJournalOverhead(const Dataset& data,
                                      const Ranking& given, EpsilonConfig eps,
                                      double budget, const std::string& mode,
                                      int fsync_every,
                                      const std::string& dir) {
  constexpr int kClients = 4;
  JournalOverheadRun run;
  run.mode = mode;
  run.fsync_every = fsync_every;

  RankHowOptions solver;
  solver.eps = eps;
  solver.time_limit_seconds = budget;

  ServerOptions server_options;
  server_options.solver = solver;
  server_options.num_workers = 0;  // all hardware threads
  server_options.max_clients = kClients;

  std::unique_ptr<SessionJournal> journal;
  if (fsync_every >= 0) {
    JournalOptions jopts;
    jopts.fsync_every = fsync_every;
    auto opened =
        SessionJournal::Open(dir + "/" + mode + ".journal", "bench",
                             DatasetFingerprint(data, given), jopts);
    if (!opened.ok()) {
      std::printf("  %-18s journal open failed: %s\n", mode.c_str(),
                  opened.status().ToString().c_str());
      run.ok = false;
      return run;
    }
    journal = std::move(*opened);
    server_options.journal = journal.get();
  }

  SessionRegistry registry(SharedDataset(Dataset(data)), Ranking(given),
                           /*labels=*/{}, server_options);
  std::vector<std::vector<SessionCommand>> scripts = {
      ThroughputScript(data)};
  WallTimer timer;
  auto runs = RunScriptedClients(&registry, scripts, kClients);
  run.seconds = timer.ElapsedSeconds();
  if (!runs.ok()) {
    std::printf("  %-18s FAILED: %s\n", mode.c_str(),
                runs.status().ToString().c_str());
    run.ok = false;
    return run;
  }
  for (const ScriptedClientRun& client : *runs) {
    run.commands += static_cast<int>(client.outcomes.size());
    if (!client.status.ok()) run.ok = false;
  }
  run.queries_per_second =
      run.seconds > 0 ? run.commands / run.seconds : 0;
  if (journal != nullptr) {
    JournalStats js = journal->Stats();
    run.records = js.records_appended;
    run.fsyncs = js.fsyncs;
    if (js.degraded || js.records_appended == 0) run.ok = false;
  }
  std::printf("  %-18s %3d commands in %7.3fs = %7.2f q/s  "
              "(%lld records, %lld fsyncs)\n",
              mode.c_str(), run.commands, run.seconds,
              run.queries_per_second, (long long)run.records,
              (long long)run.fsyncs);
  return run;
}

// ---------------------------------------------------------------------------
// Connection scaling + framing throughput over the epoll reactor.

/// A minimal blocking loopback client speaking both framings (the test
/// suite's WireClient, reduced to what the bench needs).
class BenchClient {
 public:
  BenchClient() = default;
  ~BenchClient() { Close(); }
  BenchClient(const BenchClient&) = delete;
  BenchClient& operator=(const BenchClient&) = delete;
  BenchClient(BenchClient&& other) noexcept
      : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
    other.fd_ = -1;
  }

  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in sin;
    std::memset(&sin, 0, sizeof(sin));
    sin.sin_family = AF_INET;
    sin.sin_port = htons(static_cast<uint16_t>(port));
    sin.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&sin),
                     sizeof(sin)) == 0;
  }

  bool Send(const std::string& bytes) {
    const char* p = bytes.data();
    size_t left = bytes.size();
    while (left > 0) {
      ssize_t n = ::send(fd_, p, left, MSG_NOSIGNAL);
      if (n <= 0) return false;
      p += n;
      left -= static_cast<size_t>(n);
    }
    return true;
  }

  std::optional<std::string> ReadLine() {
    for (;;) {
      size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      if (!Fill()) return std::nullopt;
    }
  }

  std::optional<std::string> ReadFrame() {
    while (buffer_.size() < 4) {
      if (!Fill()) return std::nullopt;
    }
    const auto* b = reinterpret_cast<const unsigned char*>(buffer_.data());
    const size_t len = (static_cast<size_t>(b[0]) << 24) |
                       (static_cast<size_t>(b[1]) << 16) |
                       (static_cast<size_t>(b[2]) << 8) |
                       static_cast<size_t>(b[3]);
    if (len > kMaxFrameBytes) return std::nullopt;
    while (buffer_.size() < 4 + len) {
      if (!Fill()) return std::nullopt;
    }
    std::string payload = buffer_.substr(4, len);
    buffer_.erase(0, 4 + len);
    return payload;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  bool Fill() {
    char chunk[4096];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
};

struct ConnectionScalingRun {
  int idle_connections = 0;
  double connect_seconds = 0;     // wall time to park the whole crowd
  int pings = 0;                  // active client's stats round-trips
  double ping_seconds = 0;
  double pings_per_second = 0;
  int solves = 0;
  /// The raw `ok metrics ...` key=value fields (per-verb p50/p99 etc.),
  /// re-emitted verbatim as a JSON object.
  std::vector<std::pair<std::string, std::string>> metrics_fields;
  int reactor_loops = 0;
  bool ok = true;
};

struct FramingLevel {
  std::string mode;  // "text" | "binary"
  int clients = 0;
  int requests = 0;  // total pipelined stats round-trips
  double seconds = 0;
  double requests_per_second = 0;
  bool ok = true;
};

/// The serving stack for the transport sections: one SessionRegistry
/// behind an in-process ReactorServer on an ephemeral loopback port.
/// Member order is destruction order in reverse (metrics and registry must
/// outlive the server's teardown callbacks).
struct ReactorBenchServer {
  ServerMetrics metrics;
  std::unique_ptr<SessionRegistry> registry;
  std::unique_ptr<ReactorServer> server;
  int port = 0;

  bool Start(const Dataset& data, const Ranking& given, EpsilonConfig eps,
             double budget, int max_clients) {
    RankHowOptions solver;
    solver.eps = eps;
    solver.time_limit_seconds = budget;
    ServerOptions server_options;
    server_options.solver = solver;
    server_options.num_workers = 0;
    server_options.max_clients = max_clients;
    registry = std::make_unique<SessionRegistry>(
        SharedDataset(Dataset(data)), Ranking(given), /*labels=*/
        std::vector<std::string>(), server_options);
    ServeStreamOptions serve_options;
    serve_options.metrics = &metrics;
    ReactorOptions reactor_options;
    reactor_options.metrics = &metrics;
    server = std::make_unique<ReactorServer>(
        MakeWireReactorCallbacks(registry.get(), serve_options),
        reactor_options);
    ListenAddress address;
    address.kind = ListenAddress::Kind::kTcp;
    address.host = "127.0.0.1";
    address.port = 0;
    Status started = server->Start(address);
    if (!started.ok()) {
      std::printf("  loopback TCP unavailable: %s\n",
                  started.ToString().c_str());
      return false;
    }
    port = server->bound().port;
    return true;
  }

  ~ReactorBenchServer() {
    if (server != nullptr) server->Stop();
  }
};

/// >= 1000 parked connections on one process while an active client pings
/// and solves through the crowd; per-verb latency histograms come back
/// over the wire via the `metrics` verb.
ConnectionScalingRun RunConnectionScaling(const Dataset& data,
                                          const Ranking& given,
                                          EpsilonConfig eps, double budget,
                                          int idle_conns) {
  ConnectionScalingRun run;
  run.idle_connections = idle_conns;

  ReactorBenchServer stack;
  if (!stack.Start(data, given, eps, budget, /*max_clients=*/4)) {
    run.ok = false;
    return run;
  }
  run.reactor_loops = stack.server->num_loops();

  std::vector<BenchClient> idle(static_cast<size_t>(idle_conns));
  WallTimer connect_timer;
  for (int i = 0; i < idle_conns; ++i) {
    if (!idle[i].Connect(stack.port)) {
      std::printf("  connect %d/%d failed: %s\n", i, idle_conns,
                  std::strerror(errno));
      run.ok = false;
      return run;
    }
  }
  run.connect_seconds = connect_timer.ElapsedSeconds();

  // The active client works through the crowd: open, a stats-ping burst
  // (sequential round-trips — this measures wire latency with 1000
  // registered-but-silent fds in every epoll set), two solves, metrics.
  BenchClient active;
  if (!active.Connect(stack.port)) {
    run.ok = false;
    return run;
  }
  auto roundtrip = [&active](const std::string& verb)
      -> std::optional<std::string> {
    if (!active.Send(verb + "\n")) return std::nullopt;
    return active.ReadLine();
  };
  auto opened = roundtrip("open bench");
  if (!opened.has_value() || opened->rfind("ok open bench", 0) != 0) {
    run.ok = false;
    return run;
  }

  constexpr int kPings = 200;
  WallTimer ping_timer;
  for (int i = 0; i < kPings; ++i) {
    auto pong = roundtrip("stats");
    if (!pong.has_value() || pong->rfind("ok stats", 0) != 0) {
      run.ok = false;
      return run;
    }
  }
  run.ping_seconds = ping_timer.ElapsedSeconds();
  run.pings = kPings;
  run.pings_per_second =
      run.ping_seconds > 0 ? kPings / run.ping_seconds : 0;

  for (int s = 0; s < 2; ++s) {
    auto solved = roundtrip("bench solve");
    if (!solved.has_value() || solved->rfind("ok bench", 0) != 0) {
      run.ok = false;
      return run;
    }
    ++run.solves;
  }

  // Every idle connection is still live; sample a spread of them.
  for (int i = 0; i < idle_conns; i += 97) {
    if (!idle[i].Send("stats\n") || !idle[i].ReadLine().has_value()) {
      std::printf("  idle connection %d died under load\n", i);
      run.ok = false;
      return run;
    }
  }

  auto metrics_line = roundtrip("metrics");
  if (!metrics_line.has_value() ||
      metrics_line->rfind("ok metrics ", 0) != 0) {
    run.ok = false;
    return run;
  }
  // "ok metrics k=v k=v ..." → field list, re-emitted as JSON.
  size_t pos = std::strlen("ok metrics ");
  while (pos < metrics_line->size()) {
    size_t space = metrics_line->find(' ', pos);
    if (space == std::string::npos) space = metrics_line->size();
    std::string token = metrics_line->substr(pos, space - pos);
    size_t eq = token.find('=');
    if (eq != std::string::npos) {
      run.metrics_fields.emplace_back(token.substr(0, eq),
                                      token.substr(eq + 1));
    }
    pos = space + 1;
  }

  std::printf("  %d idle conns parked in %.3fs on %d loop(s); %d pings at "
              "%7.0f/s through the crowd; %d solves; %zu metric fields\n",
              idle_conns, run.connect_seconds, run.reactor_loops, kPings,
              run.pings_per_second, run.solves,
              run.metrics_fields.size());
  (void)roundtrip("quit");
  return run;
}

/// One framing-throughput cell: `clients` pipelined connections each
/// firing `pings` stats requests in `mode` framing, then draining the
/// responses — wall time over the whole burst.
FramingLevel RunFramingLevel(int port, const std::string& mode, int clients,
                             int pings) {
  FramingLevel level;
  level.mode = mode;
  level.clients = clients;
  const bool binary = mode == "binary";

  std::vector<BenchClient> conns(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    if (!conns[c].Connect(port)) {
      level.ok = false;
      return level;
    }
    if (binary) {
      if (!conns[c].Send("frame binary\n")) {
        level.ok = false;
        return level;
      }
      auto ack = conns[c].ReadLine();
      if (!ack.has_value() || *ack != "ok frame binary") {
        level.ok = false;
        return level;
      }
    }
  }

  std::string burst;
  if (binary) {
    for (int i = 0; i < pings; ++i) EncodeFrame(FrameMode::kBinary, "stats",
                                                &burst);
  } else {
    for (int i = 0; i < pings; ++i) burst += "stats\n";
  }

  WallTimer timer;
  for (int c = 0; c < clients; ++c) {
    if (!conns[c].Send(burst)) {
      level.ok = false;
      return level;
    }
  }
  for (int c = 0; c < clients; ++c) {
    for (int i = 0; i < pings; ++i) {
      auto pong = binary ? conns[c].ReadFrame() : conns[c].ReadLine();
      if (!pong.has_value() || pong->rfind("ok stats", 0) != 0) {
        level.ok = false;
        return level;
      }
    }
  }
  level.seconds = timer.ElapsedSeconds();
  level.requests = clients * pings;
  level.requests_per_second =
      level.seconds > 0 ? level.requests / level.seconds : 0;
  std::printf("  %-6s %3d clients: %6d requests in %7.3fs = %8.0f req/s\n",
              mode.c_str(), clients, level.requests, level.seconds,
              level.requests_per_second);
  return level;
}

void EmitThroughputJson(const std::vector<ThroughputLevel>& levels,
                        const WarmSeedRun& cold, const WarmSeedRun& warm,
                        const RestartWarmRun& restart,
                        const std::vector<JournalOverheadRun>& jruns,
                        const ConnectionScalingRun& scaling,
                        const std::vector<FramingLevel>& framing,
                        int n, int m, int k, bool all_ok) {
  std::FILE* f = std::fopen("BENCH_server_throughput.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "failed to write BENCH_server_throughput.json\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"server_throughput\",\n");
  WriteBenchMetadataJson(f, /*threads_used=*/0, BenchTimestampUtc());
  // Which transport the serving sections measured: the epoll reactor with
  // its event-loop count (the scripted-client levels above bypass the
  // transport entirely — that is what "in_process" marks).
  std::fprintf(f,
               "  \"transport\": {\"mode\": \"epoll_reactor\", "
               "\"reactor_loops\": %d, \"scripted_levels\": "
               "\"in_process\"},\n",
               scaling.reactor_loops);
  std::fprintf(f,
               "  \"dataset\": {\"name\": \"nba\", \"n\": %d, \"m\": %d, "
               "\"k\": %d},\n  \"ok\": %s,\n  \"levels\": [\n",
               n, m, k, all_ok ? "true" : "false");
  for (size_t i = 0; i < levels.size(); ++i) {
    const ThroughputLevel& level = levels[i];
    std::fprintf(f,
                 "    {\"clients\": %d, \"commands\": %d, \"seconds\": "
                 "%.4f, \"queries_per_second\": %.3f, "
                 "\"resident_dataset_copies\": %d, \"optima_consistent\": "
                 "%s}%s\n",
                 level.clients, level.commands, level.seconds,
                 level.queries_per_second, level.resident_copies,
                 level.optima_consistent ? "true" : "false",
                 i + 1 < levels.size() ? "," : "");
  }
  // Cross-client warm seeding: client B's first solve after client A
  // proved the same region, with the registry pool off (cold) and on
  // (shared). first_solve_speedup is the acceptance number; b_nodes at or
  // near 0 under "shared" is the closing-at-the-root signature.
  std::fprintf(
      f,
      "  ],\n  \"cross_client_warm_seed\": {\n"
      "    \"cold\": {\"b_first_solve_seconds\": %.5f, \"b_nodes\": %ld, "
      "\"b_error\": %ld, \"proven\": %s},\n"
      "    \"shared\": {\"b_first_solve_seconds\": %.5f, \"b_nodes\": %ld, "
      "\"b_error\": %ld, \"proven\": %s, \"shared_draws\": %lld},\n"
      "    \"first_solve_speedup\": %.3f,\n"
      "    \"node_ratio\": %.3f,\n"
      "    \"errors_match\": %s\n  },\n",
      cold.b_seconds, cold.b_nodes, cold.b_error,
      cold.proven ? "true" : "false", warm.b_seconds, warm.b_nodes,
      warm.b_error, warm.proven ? "true" : "false",
      static_cast<long long>(warm.shared_draws),
      warm.b_seconds > 0 ? cold.b_seconds / warm.b_seconds : 0.0,
      cold.b_nodes > 0 ? static_cast<double>(warm.b_nodes) / cold.b_nodes
                       : 0.0,
      cold.b_error == warm.b_error ? "true" : "false");
  // Restart-warm seeding: the first solve after a simulated process death,
  // cache-cold vs over a reopened --warm-cache-dir cache. cache_hits >= 1
  // and cache_loaded >= 1 prove the warm solve drew the dead process's
  // persisted record; errors_match must be true (the cache seeds
  // tighten-only bounds, so it can never move a proven optimum).
  std::fprintf(
      f,
      "  \"restart_warm_seed\": {\n"
      "    \"cold\": {\"solve_seconds\": %.5f, \"nodes\": %ld, "
      "\"error\": %ld, \"proven\": %s},\n"
      "    \"warm\": {\"solve_seconds\": %.5f, \"nodes\": %ld, "
      "\"error\": %ld, \"proven\": %s, \"cache_hits\": %lld, "
      "\"cache_loaded\": %lld},\n"
      "    \"first_solve_speedup\": %.3f,\n"
      "    \"node_ratio\": %.3f,\n"
      "    \"errors_match\": %s,\n"
      "    \"ok\": %s\n  },\n",
      restart.cold_seconds, restart.cold_nodes, restart.cold_error,
      restart.cold_proven ? "true" : "false", restart.warm_seconds,
      restart.warm_nodes, restart.warm_error,
      restart.warm_proven ? "true" : "false",
      static_cast<long long>(restart.cache_hits),
      static_cast<long long>(restart.cache_loaded),
      restart.warm_seconds > 0 ? restart.cold_seconds / restart.warm_seconds
                               : 0.0,
      restart.cold_nodes > 0
          ? static_cast<double>(restart.warm_nodes) / restart.cold_nodes
          : 0.0,
      restart.cold_error == restart.warm_error ? "true" : "false",
      restart.ok ? "true" : "false");
  // Journal overhead: the same workload at each fsync policy, with
  // overhead_pct relative to the journal-off baseline. The acceptance
  // number is "batched" (the fsync_every=32 default) under 10%.
  std::fprintf(f, "  \"journal_overhead\": {\n    \"modes\": [\n");
  double off_seconds = 0;
  for (const JournalOverheadRun& jr : jruns) {
    if (jr.mode == "off") off_seconds = jr.seconds;
  }
  for (size_t i = 0; i < jruns.size(); ++i) {
    const JournalOverheadRun& jr = jruns[i];
    double overhead_pct =
        off_seconds > 0 ? (jr.seconds - off_seconds) / off_seconds * 100.0
                        : 0.0;
    std::fprintf(f,
                 "      {\"mode\": \"%s\", \"fsync_every\": %d, "
                 "\"seconds\": %.4f, \"queries_per_second\": %.3f, "
                 "\"records\": %lld, \"fsyncs\": %lld, "
                 "\"overhead_pct\": %.2f, \"ok\": %s}%s\n",
                 jr.mode.c_str(), jr.fsync_every, jr.seconds,
                 jr.queries_per_second, (long long)jr.records,
                 (long long)jr.fsyncs, overhead_pct,
                 jr.ok ? "true" : "false",
                 i + 1 < jruns.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  },\n");
  // Connection scaling: the >= 1000-idle-connection walk, with the
  // server's own per-verb latency histograms (the `metrics` verb fields,
  // verbatim — *_p50_us/*_p99_us are the acceptance numbers).
  std::fprintf(f,
               "  \"connection_scaling\": {\n"
               "    \"idle_connections\": %d, \"connect_seconds\": %.4f,\n"
               "    \"pings\": %d, \"ping_seconds\": %.4f, "
               "\"pings_per_second\": %.1f, \"solves\": %d,\n"
               "    \"ok\": %s,\n    \"verb_latencies\": {",
               scaling.idle_connections, scaling.connect_seconds,
               scaling.pings, scaling.ping_seconds, scaling.pings_per_second,
               scaling.solves, scaling.ok ? "true" : "false");
  for (size_t i = 0; i < scaling.metrics_fields.size(); ++i) {
    std::fprintf(f, "%s\"%s\": %s", i == 0 ? "" : ", ",
                 scaling.metrics_fields[i].first.c_str(),
                 scaling.metrics_fields[i].second.c_str());
  }
  std::fprintf(f, "}\n  },\n");
  // Framing throughput: text vs binary stats-ping bursts per client count.
  std::fprintf(f, "  \"framing_throughput\": [\n");
  for (size_t i = 0; i < framing.size(); ++i) {
    const FramingLevel& fl = framing[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"clients\": %d, \"requests\": %d, "
                 "\"seconds\": %.4f, \"requests_per_second\": %.1f, "
                 "\"ok\": %s}%s\n",
                 fl.mode.c_str(), fl.clients, fl.requests, fl.seconds,
                 fl.requests_per_second, fl.ok ? "true" : "false",
                 i + 1 < framing.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("(written to BENCH_server_throughput.json)\n");
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  // Default sized so the exact solve *proves* within --budget on one core:
  // an unproven step has no bound to reuse and (correctly) shows no
  // speedup, which would make the artifact measure nothing.
  int nba_n = static_cast<int>(
      flags.GetInt("nba-n", 600, "NBA tuples (paper: 22840)"));
  int cs_n = static_cast<int>(
      flags.GetInt("cs-n", 200, "CSRankings institutions (paper: 628)"));
  int k = static_cast<int>(flags.GetInt("k", 6, "given-ranking length"));
  double budget = flags.GetDouble("budget", 15, "per-solve cap (s)");
  uint64_t seed = flags.GetInt("seed", 1, "simulation seed");
  int serve_n = static_cast<int>(flags.GetInt(
      "serve-n", 200, "NBA tuples for the server-throughput section"));
  double serve_budget =
      flags.GetDouble("serve-budget", 5, "per-solve cap in the server "
                                         "section (s)");
  int idle_conns = static_cast<int>(flags.GetInt(
      "idle-conns", 1000,
      "parked connections in the connection-scaling section"));
  int frame_pings = static_cast<int>(flags.GetInt(
      "frame-pings", 50,
      "pipelined stats requests per client in the framing ladder"));
  if (!flags.Finish()) return 0;

  std::vector<ScriptRun> runs;

  // NBA at m=5 (the provable Fig-3b/c/d configuration): kAuto routes this
  // to the spatial strategy, so the NBA script measures the session's
  // warm-oracle + incumbent-pool + bound-seed reuse. CSRankings below
  // (m=27) routes to the indicator MILP and measures the model cache.
  std::printf("=== session re-solve vs cold: NBA (n=%d, m=5, k=%d) ===\n",
              nba_n, k);
  NbaData nba = GenerateNba({.num_tuples = nba_n, .seed = seed});
  Dataset nba5 = nba.table.SelectAttributes({0, 1, 2, 3, 4});
  runs.push_back(RunScript("nba", nba5, NbaPerRanking(nba, k), NbaEps(),
                           budget));

  std::printf("=== session re-solve vs cold: CSRankings (n=%d, m=%d, "
              "k=%d) ===\n",
              cs_n, kCsRankingsNumAreas, k);
  CsRankingsData cs =
      GenerateCsRankings({.num_institutions = cs_n, .seed = seed});
  runs.push_back(RunScript("csrankings", cs.table,
                           CsRankingsDefaultRanking(cs, k), CsRankingsEps(),
                           budget));

  bool all_ok = true;
  for (const ScriptRun& run : runs) all_ok = all_ok && run.ok;
  EmitJson(runs, all_ok);

  // Multi-client server throughput at 1/4/16 simulated clients over one
  // shared NBA snapshot (smaller n: the section measures serving overhead
  // and COW sharing, not solve depth).
  std::printf("=== session server throughput: NBA (n=%d, m=5, k=%d) ===\n",
              serve_n, k);
  NbaData serve_nba = GenerateNba({.num_tuples = serve_n, .seed = seed});
  Dataset serve_data = serve_nba.table.SelectAttributes({0, 1, 2, 3, 4});
  Ranking serve_given = NbaPerRanking(serve_nba, k);
  std::vector<ThroughputLevel> levels;
  bool serve_ok = true;
  for (int clients : {1, 4, 16}) {
    levels.push_back(RunThroughputLevel(serve_data, serve_given, NbaEps(),
                                        serve_budget, clients));
    serve_ok = serve_ok && levels.back().ok;
  }

  // Cross-client warm seeding: per-session pools (cold B) vs the
  // registry-level shared pool (B warm-starts from A's published winner).
  std::printf("=== cross-client warm seed: NBA (n=%d, m=5, k=%d) ===\n",
              serve_n, k);
  WarmSeedRun seed_cold = RunWarmSeedVariant(serve_data, serve_given,
                                             NbaEps(), serve_budget,
                                             /*shared=*/false);
  WarmSeedRun seed_warm = RunWarmSeedVariant(serve_data, serve_given,
                                             NbaEps(), serve_budget,
                                             /*shared=*/true);
  serve_ok = serve_ok && seed_cold.ok && seed_warm.ok;

  // Restart-warm seeding: the persistent warm cache across a simulated
  // process death, into its own scratch directory cleaned up afterwards.
  std::printf("=== restart-warm seed: NBA (n=%d, m=5, k=%d) ===\n", serve_n,
              k);
  RestartWarmRun restart;
  char wdir_template[] = "/tmp/rankhow_bench_warmcache_XXXXXX";
  char* wdir = mkdtemp(wdir_template);
  if (wdir == nullptr) {
    std::printf("  mkdtemp failed: skipping restart-warm section\n");
    serve_ok = false;
  } else {
    restart = RunRestartWarm(serve_data, serve_given, NbaEps(), serve_budget,
                             wdir);
    serve_ok = serve_ok && restart.ok;
    std::remove((std::string(wdir) + "/warm.cache").c_str());
    rmdir(wdir);
  }

  // Write-ahead journal overhead: the throughput workload with the journal
  // off, at the batched default, and fsyncing every record, into a scratch
  // directory cleaned up afterwards.
  std::printf("=== journal overhead: NBA (n=%d, m=5, k=%d) ===\n", serve_n,
              k);
  std::vector<JournalOverheadRun> jruns;
  char jdir_template[] = "/tmp/rankhow_bench_journal_XXXXXX";
  char* jdir = mkdtemp(jdir_template);
  if (jdir == nullptr) {
    std::printf("  mkdtemp failed: skipping journal-overhead section\n");
    serve_ok = false;
  } else {
    jruns.push_back(RunJournalOverhead(serve_data, serve_given, NbaEps(),
                                       serve_budget, "off", -1, jdir));
    jruns.push_back(RunJournalOverhead(serve_data, serve_given, NbaEps(),
                                       serve_budget, "batched", 32, jdir));
    jruns.push_back(RunJournalOverhead(serve_data, serve_given, NbaEps(),
                                       serve_budget, "fsync_every_record",
                                       1, jdir));
    for (const JournalOverheadRun& jr : jruns) {
      serve_ok = serve_ok && jr.ok;
      std::remove((std::string(jdir) + "/" + jr.mode + ".journal").c_str());
    }
    rmdir(jdir);
    if (jruns[0].seconds > 0) {
      double batched_pct =
          (jruns[1].seconds - jruns[0].seconds) / jruns[0].seconds * 100.0;
      std::printf("  batched overhead vs off: %+.2f%%%s\n", batched_pct,
                  batched_pct < 10.0 ? "" : "  (over the 10%% target)");
    }
  }

  // Connection scaling over the epoll reactor: >= 1000 parked loopback
  // connections while one active client pings and solves, per-verb
  // latencies read back via the `metrics` verb.
  std::printf("=== connection scaling: %d idle conns, epoll reactor ===\n",
              idle_conns);
  ConnectionScalingRun scaling = RunConnectionScaling(
      serve_data, serve_given, NbaEps(), serve_budget, idle_conns);
  serve_ok = serve_ok && scaling.ok;

  // Framing throughput: text vs binary stats-ping bursts at 1/16/256
  // pipelined clients, on a fresh server per mode so gauges stay clean.
  std::printf("=== framing throughput: text vs binary ===\n");
  std::vector<FramingLevel> framing;
  for (const char* mode : {"text", "binary"}) {
    ReactorBenchServer stack;
    if (!stack.Start(serve_data, serve_given, NbaEps(), serve_budget,
                     /*max_clients=*/4)) {
      serve_ok = false;
      break;
    }
    for (int clients : {1, 16, 256}) {
      framing.push_back(
          RunFramingLevel(stack.port, mode, clients, frame_pings));
      serve_ok = serve_ok && framing.back().ok;
    }
  }

  EmitThroughputJson(levels, seed_cold, seed_warm, restart, jruns, scaling,
                     framing, serve_n, 5, k, serve_ok);
  all_ok = all_ok && serve_ok;

  if (!all_ok) {
    std::printf("ERROR: session and cold solves disagree (or a solve "
                "failed); see table above\n");
    return 1;
  }
  return 0;
}
