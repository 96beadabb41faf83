#ifndef RANKHOW_SERVER_SESSION_REGISTRY_H_
#define RANKHOW_SERVER_SESSION_REGISTRY_H_

/// \file session_registry.h
/// The session server's core (see DESIGN.md "Server architecture"): a
/// registry of named per-client SolveSessions over one shared copy-on-write
/// dataset, scheduled on the PR 2 thread pool.
///
/// Shape: N clients stream edits against few datasets. Each client owns a
/// private `SolveSession` (solver state — model cache, incumbent pool,
/// bounds — is per client), while all sessions over one dataset read a
/// single immutable `SharedDataset` snapshot; a structural `append` edit
/// forks a private copy for the appending client only.
///
/// Scheduling: commands enqueue onto a per-client *strand*. A strand drains
/// its queue on one pool task at a time, so one client's commands execute
/// strictly in submission order while different clients' solves run
/// concurrently (each session solves serially — the pool supplies the
/// parallelism, exactly like rankhow_cli's batch mode). Completion
/// callbacks run on pool threads, in submission order per client.
///
/// Cancellation/deadlines: every client carries a cancel flag threaded into
/// its solver options (RankHowOptions::cancel → SearchCoordinator), so
/// `Cancel` or `Close` makes an in-flight solve wind down within one
/// node/box — a budget-limited result, never an error — without touching
/// sibling clients. Per-solve deadlines ride the normal
/// RankHowOptions::time_limit_seconds in ServerOptions::solver.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "app/cli_driver.h"
#include "core/shared_incumbent_pool.h"
#include "core/solve_session.h"
#include "core/warm_cache.h"
#include "data/shared_dataset.h"
#include "ranking/objective.h"
#include "ranking/ranking.h"
#include "ranking/shared_ranking.h"
#include "server/journal.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace rankhow {

/// What every registry's Open returns for a client name already in use;
/// the wire's duplicate-open response carries its message.
Status ClientAlreadyOpen(const std::string& client);

struct ServerOptions {
  /// Per-client solver configuration. num_threads is forced to 1: each
  /// session solves serially and the registry pool supplies the
  /// parallelism (one strand per client). time_limit_seconds is the
  /// per-solve client deadline.
  RankHowOptions solver;
  /// Every client session starts on this ranking objective (clients switch
  /// per session with the `objective` script command).
  RankingObjectiveSpec objective;
  /// Registry pool width (concurrent client strands): 0 = hardware
  /// concurrency, n = exactly n.
  int num_workers = 1;
  /// Open() beyond this fails with kResourceExhausted.
  int max_clients = 64;
  /// Cross-client incumbent sharing (ROADMAP): the registry owns one
  /// SharedIncumbentPool and attaches it to every client session, so
  /// proven winners flow between clients over the shared snapshot (as
  /// revalidated *candidates*, never bounds — see shared_incumbent_pool.h).
  /// Sharing keeps every *proven* optimum identical (asserted by
  /// tests/server/registry_router_test.cc) but can change which of several
  /// optimal weight vectors a solve reports, timing-dependently — disable
  /// where bit-identical replays matter (the PR 4 equivalence harness does).
  bool share_incumbents = true;
  /// Resident-entry cap of the shared pool (ignored when sharing is off).
  int shared_pool_capacity = 32;
  /// Write-ahead journal for this registry's session traffic (non-owning;
  /// null = journaling off; must outlive the registry — the router owns
  /// both and destroys the registry first). Every accepted edit plus
  /// open/close appends a record *before* the completion callback fires,
  /// so an acked command is always recoverable.
  SessionJournal* journal = nullptr;
  /// Persistent warm-start cache (non-owning; null = cache off; must
  /// outlive the registry — the router owns it precisely so warm state
  /// survives registry eviction). When set, the registry creates the
  /// shared incumbent pool even with share_incumbents off (the pool is the
  /// cache's write-through front), attaches the cache to the pool and to
  /// every client session, and sessions draw/publish fingerprint-keyed
  /// proven winners across restarts.
  WarmCache* warm_cache = nullptr;
  /// Overload-shedding admission watermark: when the registry-wide count
  /// of queued + in-flight commands reaches this, *new* Submits fail with
  /// kResourceExhausted (carrying a RETRY-AFTER hint) instead of queueing —
  /// already-queued commands always finish. 0 = off.
  int max_pending_commands = 0;
  /// The RETRY-AFTER hint (milliseconds) embedded in shed responses.
  int shed_retry_after_ms = 250;
};

/// Aggregate registry counters (snapshot; see Stats()).
struct SessionRegistryStats {
  int open_clients = 0;
  /// Distinct physical dataset snapshots resident across the registry's
  /// base handle and every open client — 1 until some client's structural
  /// edit forks (the acceptance metric for the COW layer).
  int resident_dataset_copies = 0;
  /// Commands fully executed (callback delivered), across all clients.
  int64_t commands_executed = 0;
  /// Copy-on-write forks performed by clients since the registry opened.
  int64_t dataset_forks = 0;
  /// Cross-client shared incumbent pool counters (all 0 when
  /// ServerOptions::share_incumbents is off).
  int shared_pool_size = 0;
  int64_t shared_publishes = 0;
  int64_t shared_draws = 0;
  /// Commands queued or in flight right now (the shedding watermark input).
  int pending_commands = 0;
  /// Submits rejected by the overload-shedding admission gate.
  int64_t commands_shed = 0;
  /// Close accounting: graceful (wire `close` / quit — the queue finished
  /// first) vs aborted (EOF without quit, eviction, cancel-style Close).
  /// Distinct so chaos tests can assert a vanished peer was *aborted*.
  int64_t closes_graceful = 0;
  int64_t closes_aborted = 0;
  /// Warm-cache counters, summed over this registry's sessions (live +
  /// closed — all 0 when ServerOptions::warm_cache is null). Hit = a solve
  /// drew >= 1 exact-fingerprint entry; demotion = a mismatched entry
  /// handed out as a revalidation candidate, never a bound.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_demotions = 0;
  int64_t cache_publishes = 0;
};

/// Per-command completion signature shared by SessionRegistry and the
/// RegistryRouter layered over it (see server/registry_router.h): the
/// outcome of one edit+solve, or the edit's Status error. Runs on a pool
/// thread.
using SessionCallback =
    std::function<void(const std::string& client,
                       const Result<SessionStepOutcome>& outcome)>;

class SessionRegistry {
 public:
  /// One registry per served dataset+ranking. `labels` resolve the script
  /// grammar's `order` commands (one per tuple, as in CliProblem).
  SessionRegistry(SharedDataset data, Ranking given,
                  std::vector<std::string> labels, ServerOptions options);
  /// Cancels every client, drains all strands, then frees the sessions.
  ~SessionRegistry();

  SessionRegistry(const SessionRegistry&) = delete;
  SessionRegistry& operator=(const SessionRegistry&) = delete;

  /// Per-command completion: the outcome of one edit+solve, or the edit's
  /// Status error (the session stays open and intact either way). Runs on
  /// a pool thread; must not call Close/Drain (deadlock — the strand would
  /// wait on itself).
  using Callback = SessionCallback;

  /// Creates a client session sharing the registry's dataset snapshot.
  /// kAlreadyExists for a live name, kInvalidArgument for an empty or
  /// reserved name (the wire verbs), kResourceExhausted at max_clients.
  Status Open(const std::string& client);

  // ---------------------------------------------------- crash recovery
  /// Open() plus the recovered-unadopted mark: the session was rebuilt
  /// from the journal and no live connection owns it yet. The next wire
  /// `open` of the same name *adopts* it (state intact) instead of
  /// failing kAlreadyExists. Used only by RegistryRouter's journal replay.
  Status OpenRecovered(const std::string& client);
  /// Claims a recovered-unadopted client: clears the mark and returns
  /// true. False when the client is unknown or was opened normally (the
  /// caller then reports the usual kAlreadyExists).
  bool Adopt(const std::string& client);
  /// Applies one journaled command's *edit* to the client's session — no
  /// solve, no journaling, no strand (recovery runs before serving
  /// starts, single-threaded). Replaying the same edits through the same
  /// ApplySessionCommand path the live server used reproduces the exact
  /// constraint state; incumbents return lazily via SharedIncumbentPool.
  Status ReplayEdit(const std::string& client, const SessionCommand& cmd);

  /// Enqueues one command onto the client's strand. The callback fires
  /// after the edit+solve completes (or the edit fails). kNotFound for an
  /// unknown/closing client.
  Status Submit(const std::string& client, SessionCommand command,
                Callback done);

  /// Cooperatively cancels the client's in-flight solve (it returns
  /// budget-limited, incumbent kept); for an idle client the *next*
  /// command is cancelled instead — the flag is consumed by exactly one
  /// command, so commands queued behind it run normally. Pair with Close
  /// to shed the queue. No-op for unknown clients.
  void Cancel(const std::string& client);

  /// Closes a client and frees its session (and snapshot refcount).
  /// Abort mode (default): cancels the in-flight solve and fails every
  /// queued command. Graceful mode (`graceful = true`, what the wire
  /// protocol's `close` uses — the same stream submitted those commands):
  /// stops accepting new commands, lets the queue finish, then closes.
  /// Both block until the strand is idle. kNotFound for unknown clients.
  /// Do not call from a Callback.
  Status Close(const std::string& client, bool graceful = false);

  /// Blocks until every strand is idle and every queue empty. Do not call
  /// from a Callback.
  void Drain();

  SessionRegistryStats Stats() const;
  const std::vector<std::string>& labels() const { return labels_; }

  /// True iff any client has a command running or queued (a non-blocking
  /// peek — the answer can be stale by the time the caller acts on it; the
  /// router's LRU eviction treats it as best-effort).
  bool Busy() const;
  /// True iff `client` exists and has a command running or queued. False
  /// for unknown clients.
  bool ClientBusy(const std::string& client) const;

 private:
  struct Client {
    /// Outlives the session (the session's solver options point at it).
    std::unique_ptr<std::atomic<bool>> cancel;
    std::unique_ptr<SolveSession> session;
    std::deque<std::pair<SessionCommand, Callback>> queue;
    bool running = false;  // a pool task is draining this strand
    bool closing = false;   // abort: strand drops queued commands
    bool draining = false;  // no new submits; queued commands still run
    /// Rebuilt from the journal, not yet claimed by a connection (see
    /// OpenRecovered/Adopt).
    bool recovered = false;
    /// Mirrors published under mu_ after each command, so Stats() never
    /// reads the session while its strand mutates it off-lock.
    const void* snapshot_id = nullptr;
    int64_t dataset_forks = 0;
    int64_t cache_hits = 0;
    int64_t cache_misses = 0;
    int64_t cache_demotions = 0;
    int64_t cache_publishes = 0;
  };

  /// The strand body: drains `client`'s queue one command at a time.
  void RunStrand(const std::string& name, std::shared_ptr<Client> client);
  /// Open with or without the recovered mark (shared implementation).
  Status OpenInternal(const std::string& client, bool recovered);

  SharedDataset base_;
  /// COW handle: every client session shares this one physical ranking
  /// buffer (the SharedDataset treatment at ranking granularity).
  SharedRanking given_;
  std::vector<std::string> labels_;
  ServerOptions options_;
  /// Cross-client incumbent pool (null when sharing is off). Declared
  /// before pool_ and destroyed after the sessions (the destructor clears
  /// clients_ first), so no strand ever touches a dead pool.
  std::unique_ptr<SharedIncumbentPool> shared_pool_;
  ThreadPool pool_;

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  std::map<std::string, std::shared_ptr<Client>> clients_;
  int64_t commands_executed_ = 0;
  /// Counters retired from since-closed clients (Stats() adds the open
  /// clients' live mirrors, keeping the totals cumulative).
  int64_t forks_retired_ = 0;
  int64_t cache_hits_retired_ = 0;
  int64_t cache_misses_retired_ = 0;
  int64_t cache_demotions_retired_ = 0;
  int64_t cache_publishes_retired_ = 0;
  /// Queued + in-flight commands across all clients (shedding input).
  int pending_commands_ = 0;
  int64_t commands_shed_ = 0;
  int64_t closes_graceful_ = 0;
  int64_t closes_aborted_ = 0;
};

}  // namespace rankhow

#endif  // RANKHOW_SERVER_SESSION_REGISTRY_H_
