#include "coord/coordinator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "server/wire.h"
#include "util/string_util.h"

namespace rankhow {

namespace {

/// Bound on the graceful quit drain: upstreams still owing responses
/// then break, which answers what they owed.
constexpr std::chrono::milliseconds kQuitDrain{30000};
/// Session::worker while a failover picks its replacement.
constexpr int kRebinding = -1;

/// Fields merged by max instead of sum: high-water marks, latency
/// quantiles, and the sticky degraded flags (any worker degraded means
/// the fleet is degraded).
bool IsMaxMerged(const std::string& name) {
  if (name == "journal_degraded" || name == "cache_degraded") return true;
  if (name.size() > 3 && name.compare(name.size() - 3, 3, "_us") == 0) {
    return true;
  }
  return name.find("peak") != std::string::npos;
}

}  // namespace

std::string AggregateFieldLines(const std::vector<std::string>& lines) {
  std::vector<std::string> order;
  std::map<std::string, std::string> first_value;
  std::map<std::string, long long> numeric;
  std::map<std::string, bool> is_numeric;
  for (const std::string& line : lines) {
    for (const std::string& token : Split(line, ' ')) {
      if (token.empty()) continue;
      const size_t eq = token.find('=');
      if (eq == std::string::npos || eq == 0) continue;
      const std::string name = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      Result<int64_t> parsed = ParseInt(value);
      auto seen = first_value.find(name);
      if (seen == first_value.end()) {
        order.push_back(name);
        first_value[name] = value;
        is_numeric[name] = parsed.ok();
        numeric[name] = parsed.ok() ? static_cast<long long>(*parsed) : 0;
      } else if (is_numeric[name] && parsed.ok()) {
        const long long v = static_cast<long long>(*parsed);
        numeric[name] =
            IsMaxMerged(name) ? std::max(numeric[name], v) : numeric[name] + v;
      }
    }
  }
  std::string out;
  for (const std::string& name : order) {
    if (!out.empty()) out += ' ';
    out += name + "=";
    out += is_numeric[name] ? std::to_string(numeric[name])
                            : first_value[name];
  }
  return out;
}

// ---------------------------------------------------------------------------
// Downstream: one client connection, the reactor's per-connection state
// ---------------------------------------------------------------------------

class CoordServer::Downstream
    : public std::enable_shared_from_this<CoordServer::Downstream> {
 public:
  Downstream(CoordServer* server, std::shared_ptr<ReactorConn> conn)
      : server_(server), conn_(std::move(conn)) {}
  Downstream(const Downstream&) = delete;
  Downstream& operator=(const Downstream&) = delete;

  /// Loop thread: one decoded request. Never dials or waits on a worker;
  /// a dial or round trip is handed to conn_->Defer, and nothing else
  /// waits at all.
  void HandleLine(const std::string& payload);
  /// Ops thread, once, after the connection closed.
  void Cleanup();

 private:
  struct Session {
    std::string requested_dataset;  ///< what `open` asked for (routing key)
    std::string bound_dataset;      ///< what the worker's ack echoed
    std::string open_payload;       ///< canonical open line, for replay
    int worker = kRebinding;
    bool open_acked = false;
    bool recovered_pending = false;  ///< failed over; next open adopts
    std::vector<std::string> acked_edits;  ///< ok-acked edit lines, in order
    /// Entries that arrived while the worker's connection was dead or
    /// being replaced; the failover forwards them after its replay.
    std::vector<ProxyEntry> queued;
  };

  void HandleOpen(int64_t line_no, const WireRequest& request);
  /// Deferred half of `open`: routes, dials, re-routes past dead workers.
  void OpenWithDial(int64_t line_no, const WireRequest& request);
  void HandleSessionVerb(int64_t line_no, const WireRequest& request,
                         const std::string& payload);
  void HandleDeadline(int64_t ms);
  /// Deferred: `stats`/`metrics` over every up worker, merged.
  void HandleScatter(bool metrics);
  void HandleQuit();

  void OnUpstreamResponse(const ProxyEntry& entry,
                          const std::string& response);
  void OnUpstreamBroken(int worker, UpstreamConn* conn,
                        std::vector<ProxyEntry> unacked);

  /// Existing healthy connection to `worker`, or a fresh dial. Dials
  /// without mu_ held; nullptr with *error set when the dial fails.
  std::shared_ptr<UpstreamConn> UpstreamFor(int worker, std::string* error);
  /// Records a session for `request` and forwards its open on `up`.
  /// False when `up` died first (the caller re-routes). Under mu_.
  bool ForwardOpenLocked(int64_t line_no, const WireRequest& request,
                         int worker, const std::shared_ptr<UpstreamConn>& up);
  /// After a quit, once no response is owed: `ok quit`, then close.
  /// Under mu_, so no response can be emitted after it.
  void FinishQuitIfDrainedLocked();

  void Emit(const std::string& payload) { (void)conn_->Send(payload); }

  CoordServer* server_;
  /// Shared, not borrowed: upstream reader threads may still answer
  /// through it after on_close (Send then drops the message).
  std::shared_ptr<ReactorConn> conn_;
  int64_t line_no_ = 0;  ///< loop thread only
  bool quit_ = false;    ///< loop thread only: later input is dropped

  // Proxy state shared with upstream reader threads and deferred work.
  std::mutex mu_;
  std::map<std::string, Session> sessions_;
  std::map<int, std::shared_ptr<UpstreamConn>> upstreams_;
  int64_t inflight_ = 0;  ///< forwarded or queued entries owed a response
  int64_t deadline_ms_ = 0;
  bool deadline_set_ = false;
  bool ended_ = false;  ///< quit or teardown: drop, don't fail over
  bool quit_pending_ = false;  ///< `ok quit` waits for inflight_ == 0
};

void CoordServer::Downstream::Cleanup() {
  std::vector<std::shared_ptr<UpstreamConn>> ups;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ended_ = true;
    for (auto& [worker, conn] : upstreams_) ups.push_back(conn);
    upstreams_.clear();
    sessions_.clear();
  }
  // Closing the upstream connections makes each worker abort-close the
  // clients they carried — identical to those clients' own connections
  // dying, which is the transparency we owe the protocol.
  for (auto& conn : ups) conn->Shutdown();
}

void CoordServer::Downstream::HandleLine(const std::string& payload) {
  if (quit_) return;  // late pipelined input after quit, as on workers
  const int64_t line_no = ++line_no_;
  Result<WireRequest> request = ParseWireLine(payload);
  if (!request.ok()) {
    if (request.status().code() == StatusCode::kNotFound) return;  // blank
    server_->c_local_errors_.fetch_add(1);
    Emit(WireParseError(line_no, request.status().message()));
    return;
  }
  switch (request->kind) {
    case WireRequest::Kind::kQuit:
      HandleQuit();
      break;
    case WireRequest::Kind::kStats:
    case WireRequest::Kind::kMetrics: {
      // Worker round trips: off the loop.
      const bool metrics = request->kind == WireRequest::Kind::kMetrics;
      auto self = shared_from_this();
      conn_->Defer([self, metrics] { self->HandleScatter(metrics); });
      break;
    }
    case WireRequest::Kind::kDeadline:
      HandleDeadline(request->deadline_ms);
      break;
    case WireRequest::Kind::kFrame:
      // Ack in the old mode, then switch: the worker's own contract.
      Emit(WireFrameAck(request->frame_binary));
      conn_->SwitchMode(request->frame_binary ? FrameMode::kBinary
                                              : FrameMode::kText);
      break;
    case WireRequest::Kind::kOpen:
      HandleOpen(line_no, *request);
      break;
    case WireRequest::Kind::kClose:
    case WireRequest::Kind::kCommand:
      HandleSessionVerb(line_no, *request, payload);
      break;
  }
}

void CoordServer::Downstream::HandleDeadline(int64_t ms) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    deadline_ms_ = ms;
    deadline_set_ = true;
    // Deadlines are per-connection worker state: push to every live
    // upstream now, and UpstreamFor seeds future ones.
    for (auto& [worker, conn] : upstreams_) {
      ProxyEntry entry;
      entry.kind = ProxyEntry::Kind::kDeadline;
      entry.payload = StrFormat("deadline %lld", static_cast<long long>(ms));
      entry.swallow = true;
      if (conn->Forward(std::move(entry))) ++inflight_;
    }
  }
  Emit(WireDeadlineAck(ms));
}

void CoordServer::Downstream::HandleOpen(int64_t line_no,
                                         const WireRequest& request) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = sessions_.find(request.client);
  if (it != sessions_.end()) {
    std::string reply;
    if (it->second.recovered_pending) {
      // The session failed over to a replacement worker; this open
      // adopts it, carrying the same suffix a journal-recovering worker
      // uses (docs/PROTOCOL.md "Recovery").
      it->second.recovered_pending = false;
      reply = "ok open " + request.client + " " + it->second.bound_dataset +
              " recovered";
    } else {
      server_->c_local_errors_.fetch_add(1);
      reply = WireDuplicateOpen(request.client);
    }
    lock.unlock();
    Emit(reply);
    return;
  }
  lock.unlock();
  auto self = shared_from_this();
  conn_->Defer(
      [self, line_no, request] { self->OpenWithDial(line_no, request); });
}

void CoordServer::Downstream::OpenWithDial(int64_t line_no,
                                           const WireRequest& request) {
  const int num_workers =
      static_cast<int>(server_->shard_map_.workers().size());
  std::string last_error = "no alive worker";
  for (int attempt = 0; attempt <= num_workers; ++attempt) {
    Result<int> route = server_->shard_map_.Route(
        request.dataset,
        [this](int i) { return server_->supervisor_->IsAlive(i); });
    if (!route.ok()) {
      last_error = route.status().message();
      break;
    }
    std::shared_ptr<UpstreamConn> up = UpstreamFor(*route, &last_error);
    if (up == nullptr) {
      // The route said alive but the dial says dead: fast-probe (marks
      // the worker down on confirmation) and re-route.
      server_->supervisor_->ReportFailure(*route);
      continue;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (ForwardOpenLocked(line_no, request, *route, up)) return;
    // Raced the connection's death; re-route.
  }
  server_->c_local_errors_.fetch_add(1);
  Emit("err " + request.client + " " + last_error);
}

bool CoordServer::Downstream::ForwardOpenLocked(
    int64_t line_no, const WireRequest& request, int worker,
    const std::shared_ptr<UpstreamConn>& up) {
  Session session;
  session.requested_dataset = request.dataset;
  session.open_payload =
      "open " + request.client +
      (request.dataset.empty() ? "" : " " + request.dataset);
  session.worker = worker;
  ProxyEntry entry;
  entry.kind = ProxyEntry::Kind::kOpen;
  entry.payload = session.open_payload;
  entry.client = request.client;
  entry.downstream_line = line_no;
  sessions_[request.client] = std::move(session);
  if (!up->Forward(std::move(entry))) {
    sessions_.erase(request.client);
    return false;
  }
  ++inflight_;
  server_->c_sessions_opened_.fetch_add(1);
  return true;
}

void CoordServer::Downstream::HandleSessionVerb(int64_t line_no,
                                                const WireRequest& request,
                                                const std::string& payload) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = sessions_.find(request.client);
  if (it == sessions_.end()) {
    server_->c_local_errors_.fetch_add(1);
    lock.unlock();
    Emit(WireUnknownClient(request.client));
    return;
  }
  Session& session = it->second;
  ProxyEntry entry;
  entry.client = request.client;
  entry.downstream_line = line_no;
  if (request.kind == WireRequest::Kind::kClose) {
    entry.kind = ProxyEntry::Kind::kClose;
    entry.payload = "close " + request.client;
  } else {
    entry.kind = ProxyEntry::Kind::kCommand;
    entry.payload = payload;
    entry.is_edit = request.command.kind != SessionCommand::Kind::kSolve;
    server_->c_commands_proxied_.fetch_add(1);
  }
  ++inflight_;
  if (session.queued.empty()) {
    auto up = upstreams_.find(session.worker);
    if (up != upstreams_.end() && up->second->Forward(entry)) return;
  }
  // The bound worker's connection is dead or dying (or a failover holds
  // the session): its on_broken replays the session and then forwards
  // the queue, so order holds without waiting here.
  session.queued.push_back(std::move(entry));
}

std::shared_ptr<UpstreamConn> CoordServer::Downstream::UpstreamFor(
    int worker, std::string* error) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = upstreams_.find(worker);
    if (it != upstreams_.end() && !it->second->failed()) return it->second;
  }
  auto self = shared_from_this();
  UpstreamConn::Callbacks callbacks;
  callbacks.on_response = [self](const ProxyEntry& entry,
                                 const std::string& response) {
    self->OnUpstreamResponse(entry, response);
  };
  callbacks.on_broken = [self, worker](UpstreamConn* conn,
                                       std::vector<ProxyEntry> unacked) {
    self->OnUpstreamBroken(worker, conn, std::move(unacked));
  };
  Result<std::shared_ptr<UpstreamConn>> dialed = UpstreamConn::Dial(
      server_->shard_map_.workers()[static_cast<size_t>(worker)],
      server_->options_.health.dial_timeout_ms, std::move(callbacks),
      &server_->gate_);
  if (!dialed.ok()) {
    *error = dialed.status().message();
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = upstreams_.find(worker);
  if (ended_ || (it != upstreams_.end() && !it->second->failed())) {
    // Torn down meanwhile (the dead connection refuses every Forward), or
    // a concurrent dial won the race: keep one connection per worker.
    (*dialed)->Shutdown();
    return ended_ ? *dialed : it->second;
  }
  // A failed predecessor may still sit in the map: its on_broken erases
  // by pointer identity, so overwriting here cannot orphan anything.
  upstreams_[worker] = *dialed;
  if (deadline_set_) {
    ProxyEntry entry;
    entry.kind = ProxyEntry::Kind::kDeadline;
    entry.payload =
        StrFormat("deadline %lld", static_cast<long long>(deadline_ms_));
    entry.swallow = true;
    if ((*dialed)->Forward(std::move(entry))) ++inflight_;
  }
  return *dialed;
}

void CoordServer::Downstream::OnUpstreamResponse(const ProxyEntry& entry,
                                                 const std::string& response) {
  const bool ok = StartsWith(response, "ok ");
  // Emits under mu_, so a pending `ok quit` can never overtake them.
  std::lock_guard<std::mutex> lock(mu_);
  --inflight_;
  if (entry.swallow) {
    if (!ok && entry.kind != ProxyEntry::Kind::kClose) {
      server_->c_replay_errors_.fetch_add(1);
      std::fprintf(stderr, "rankhow_coord: swallowed %s failed: %s\n",
                   entry.payload.c_str(), response.c_str());
    }
    if (ok && entry.kind == ProxyEntry::Kind::kOpen) {
      // Replayed open: refresh the bound dataset from the new ack.
      auto it = sessions_.find(entry.client);
      std::vector<std::string> tokens = Split(response, ' ');
      if (it != sessions_.end() && tokens.size() >= 4) {
        it->second.bound_dataset = tokens[3];
      }
    }
    FinishQuitIfDrainedLocked();
    return;
  }
  std::string out = response;
  bool session_ended = false;
  switch (entry.kind) {
    case ProxyEntry::Kind::kCommand: {
      if (ok && entry.is_edit) {
        auto it = sessions_.find(entry.client);
        if (it != sessions_.end()) {
          it->second.acked_edits.push_back(entry.payload);
        }
      }
      out = RewriteWireResponseLine(response, entry.downstream_line);
      break;
    }
    case ProxyEntry::Kind::kOpen: {
      auto it = sessions_.find(entry.client);
      if (ok && it != sessions_.end()) {
        std::vector<std::string> tokens = Split(response, ' ');
        it->second.bound_dataset = tokens.size() >= 4 ? tokens[3] : "";
        it->second.open_acked = true;
      }
      session_ended = !ok;
      break;
    }
    case ProxyEntry::Kind::kClose:
      session_ended = ok;
      break;
    case ProxyEntry::Kind::kDeadline:
      break;  // unreachable: deadlines are always swallowed
  }
  Emit(out);
  auto it = sessions_.find(entry.client);
  if (session_ended && it != sessions_.end()) {
    // Entries queued behind a dead connection now meet no session: the
    // worker would answer them so.
    for (size_t i = 0; i < it->second.queued.size(); ++i) {
      --inflight_;
      Emit(WireUnknownClient(entry.client));
    }
    sessions_.erase(it);
  }
  FinishQuitIfDrainedLocked();
}

void CoordServer::Downstream::OnUpstreamBroken(
    int worker, UpstreamConn* conn, std::vector<ProxyEntry> unacked) {
  // 1. Under the lock: take the broken connection out, sort its unacked
  //    tail by client, and park the sessions bound to it (their new
  //    commands queue on the session until step 3 rebinds them).
  std::map<std::string, std::vector<ProxyEntry>> pending_by_client;
  std::vector<std::pair<std::string, std::string>> affected;  // client, key
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto uit = upstreams_.find(worker);
    if (uit != upstreams_.end() && uit->second.get() == conn) {
      upstreams_.erase(uit);
    }
    if (ended_) {
      // Quit or teardown: what this worker owed is dropped, not replayed.
      int64_t dropped = static_cast<int64_t>(unacked.size());
      for (auto& [client, session] : sessions_) {
        if (session.worker != worker) continue;
        dropped += static_cast<int64_t>(session.queued.size());
        session.queued.clear();
      }
      inflight_ -= dropped;
      FinishQuitIfDrainedLocked();
      return;
    }
    // Swallowed entries don't replay from here: deadlines are re-seeded
    // per new connection, and replayed opens/edits are regenerated from
    // the session's acked_edits below.
    int64_t dropped = 0;
    for (ProxyEntry& entry : unacked) {
      if (entry.swallow || entry.kind == ProxyEntry::Kind::kDeadline) {
        ++dropped;
        continue;
      }
      pending_by_client[entry.client].push_back(std::move(entry));
    }
    inflight_ -= dropped;

    for (auto& [client, session] : sessions_) {
      if (session.worker != worker) continue;
      session.worker = kRebinding;
      affected.emplace_back(client, session.requested_dataset);
    }
    if (!affected.empty()) server_->c_failovers_.fetch_add(1);
  }
  // Confirms the death (marks the worker down so routing skips it)
  // without holding mu_, so response forwarding never stalls on it.
  server_->supervisor_->ReportFailure(worker);

  // 2. Without the lock: route each parked session past the dead worker
  //    and dial its replacement.
  struct Rebind {
    int worker = -1;
    std::shared_ptr<UpstreamConn> conn;
    std::string why = "no replacement available";
  };
  std::map<std::string, Rebind> rebinds;
  const int num_workers =
      static_cast<int>(server_->shard_map_.workers().size());
  for (const auto& [client, dataset] : affected) {
    Rebind& rebind = rebinds[client];
    for (int attempt = 0; attempt < num_workers; ++attempt) {
      Result<int> route = server_->shard_map_.Route(
          dataset, [this, worker](int i) {
            return i != worker && server_->supervisor_->IsAlive(i);
          });
      if (!route.ok()) {
        rebind.why = route.status().message();
        break;
      }
      std::string dial_error;
      rebind.conn = UpstreamFor(*route, &dial_error);
      if (rebind.conn != nullptr) {
        rebind.worker = *route;
        break;
      }
      rebind.why = dial_error;
      server_->supervisor_->ReportUnreachable(*route, dial_error);
    }
  }

  // 3. Under the lock again: rebuild each session on its replacement.
  const std::string dead_spec =
      server_->shard_map_.workers()[static_cast<size_t>(worker)].spec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [client, dataset] : affected) {
      auto sit = sessions_.find(client);
      if (sit == sessions_.end()) continue;
      Session& session = sit->second;
      std::vector<ProxyEntry>& pending = pending_by_client[client];
      // What arrived during the failover follows the unacked tail.
      for (ProxyEntry& entry : session.queued) {
        pending.push_back(std::move(entry));
      }
      session.queued.clear();
      // Ended meanwhile: the pending entries are answered as orphans.
      if (ended_) continue;
      Rebind& rebind = rebinds[client];
      if (rebind.conn != nullptr && rebind.conn->failed()) {
        rebind.conn = nullptr;
        rebind.why = "replacement died";
      }
      if (rebind.conn == nullptr) {
        server_->c_failover_failures_.fetch_add(1);
        for (ProxyEntry& entry : pending) {
          --inflight_;
          if (entry.kind == ProxyEntry::Kind::kCommand) {
            Emit(StrFormat(
                "err %s line=%d worker %s died: %s", client.c_str(),
                static_cast<int>(entry.downstream_line), dead_spec.c_str(),
                rebind.why.c_str()));
          } else {
            Emit("err " + client + " worker " + dead_spec +
                 " died: " + rebind.why);
          }
        }
        pending.clear();
        sessions_.erase(sit);
        continue;
      }

      // Rebuild the session on the replacement: a swallowed open, the
      // acked edit script in ack order (this is exactly the state the
      // journal guarantees — acked ⊆ journaled ⊆ replayable), then the
      // unacked tail verbatim. The worker serializes per client, so no
      // waiting between lines is needed.
      bool open_in_tail = false;
      for (const ProxyEntry& entry : pending) {
        if (entry.kind == ProxyEntry::Kind::kOpen) open_in_tail = true;
      }
      if (!open_in_tail) {
        ProxyEntry open_entry;
        open_entry.kind = ProxyEntry::Kind::kOpen;
        open_entry.payload = session.open_payload;
        open_entry.client = client;
        open_entry.swallow = true;
        if (rebind.conn->Forward(std::move(open_entry))) ++inflight_;
        for (const std::string& edit : session.acked_edits) {
          ProxyEntry replay;
          replay.kind = ProxyEntry::Kind::kCommand;
          replay.payload = edit;
          replay.client = client;
          replay.is_edit = true;
          replay.swallow = true;
          if (rebind.conn->Forward(std::move(replay))) {
            ++inflight_;
            server_->c_replayed_edits_.fetch_add(1);
          }
        }
      }
      for (ProxyEntry& entry : pending) {
        if (!rebind.conn->Forward(std::move(entry))) {
          // The replacement died inside the same failover; its own
          // on_broken cannot know this entry, so fail it here.
          --inflight_;
          Emit(StrFormat(
              "err %s line=%d worker unavailable: replacement died",
              client.c_str(), static_cast<int>(entry.downstream_line)));
        }
      }
      pending.clear();
      session.worker = rebind.worker;
      if (session.open_acked) session.recovered_pending = true;
      server_->c_failover_sessions_.fetch_add(1);
    }

    // Entries whose client has no session (closed concurrently, open
    // already rejected, connection ended): nothing to rebind, answer
    // cleanly.
    for (auto& [client, pending] : pending_by_client) {
      for (ProxyEntry& entry : pending) {
        --inflight_;
        if (entry.kind == ProxyEntry::Kind::kCommand) {
          Emit(StrFormat("err %s line=%d worker %s died", client.c_str(),
                         static_cast<int>(entry.downstream_line),
                         dead_spec.c_str()));
        } else {
          Emit("err " + client + " worker " + dead_spec + " died");
        }
      }
    }
    FinishQuitIfDrainedLocked();
  }
}

void CoordServer::Downstream::HandleScatter(bool metrics) {
  const char* verb = metrics ? "metrics" : "stats";
  const std::string prefix = std::string("ok ") + verb + " ";
  std::vector<std::string> field_lines;
  std::string breakdown;
  int up_count = 0;
  const int num_workers = server_->supervisor_->num_workers();
  for (int w = 0; w < num_workers; ++w) {
    bool got = false;
    if (server_->supervisor_->IsAlive(w)) {
      Result<std::string> response =
          server_->supervisor_->ControlRoundTrip(w, verb);
      if (response.ok() && StartsWith(*response, prefix)) {
        field_lines.push_back(response->substr(prefix.size()));
        got = true;
      }
    }
    if (got) ++up_count;
    breakdown += StrFormat(
        " w%d=%s:%s", w,
        server_->shard_map_.workers()[static_cast<size_t>(w)].spec.c_str(),
        got ? "up" : "down");
  }
  if (field_lines.empty()) {
    server_->c_local_errors_.fetch_add(1);
    Emit(StrFormat("err - %s unavailable: no worker reachable", verb));
    return;
  }
  const CoordCounters counters = server_->counters();
  std::string line = prefix + AggregateFieldLines(field_lines);
  line += StrFormat(
      " coord_workers=%d coord_up=%d coord_sessions=%lld "
      "coord_commands=%lld coord_failovers=%lld "
      "coord_failover_sessions=%lld coord_failover_failures=%lld "
      "coord_replayed=%lld coord_replay_errors=%lld",
      num_workers, up_count, counters.sessions_opened,
      counters.commands_proxied, counters.failovers,
      counters.failover_sessions, counters.failover_failures,
      counters.replayed_edits, counters.replay_errors);
  line += breakdown;
  Emit(line);
}

void CoordServer::Downstream::HandleQuit() {
  quit_ = true;
  std::lock_guard<std::mutex> lock(mu_);
  // Graceful drain: ask each worker to close its clients (their queued
  // commands finish and answer first — the worker's own close semantics)
  // and hold `ok quit` until every in-flight response came back. A
  // session mid-failover is answered by the failover instead.
  for (auto& [client, session] : sessions_) {
    auto up = upstreams_.find(session.worker);
    if (!session.queued.empty() || up == upstreams_.end()) continue;
    ProxyEntry entry;
    entry.kind = ProxyEntry::Kind::kClose;
    entry.payload = "close " + client;
    entry.client = client;
    entry.swallow = true;
    if (up->second->Forward(std::move(entry))) ++inflight_;
  }
  ended_ = true;
  quit_pending_ = true;
  const auto deadline = std::chrono::steady_clock::now() + kQuitDrain;
  for (auto& [worker, conn] : upstreams_) conn->BreakAt(deadline);
  FinishQuitIfDrainedLocked();
}

void CoordServer::Downstream::FinishQuitIfDrainedLocked() {
  if (!quit_pending_ || inflight_ > 0) return;
  quit_pending_ = false;
  sessions_.clear();
  Emit("ok quit");
  // The reactor stops reading a closing connection.
  conn_->Close();
}

// ---------------------------------------------------------------------------
// CoordServer
// ---------------------------------------------------------------------------

CoordServer::CoordServer(ShardMap shard_map, CoordOptions options)
    : shard_map_(std::move(shard_map)), options_(options) {
  supervisor_ = std::make_unique<WorkerSupervisor>(shard_map_.workers(),
                                                   options_.health);
}

CoordServer::~CoordServer() { Stop(); }

ReactorCallbacks CoordServer::MakeCallbacks() {
  using DownstreamPtr = std::shared_ptr<Downstream>;
  ReactorCallbacks callbacks;
  callbacks.on_open = [this](ReactorConn& conn) -> void* {
    c_connections_.fetch_add(1);
    return new DownstreamPtr(
        std::make_shared<Downstream>(this, conn.shared_from_this()));
  };
  callbacks.on_message = [](ReactorConn& conn, const std::string& payload) {
    (*static_cast<DownstreamPtr*>(conn.user()))->HandleLine(payload);
  };
  callbacks.on_protocol_error = [](ReactorConn& conn,
                                   const std::string& error) {
    (void)conn.Send(WireFramingError(error));
  };
  callbacks.on_close = [](ReactorConn& conn, CloseReason) {
    auto* downstream = static_cast<DownstreamPtr*>(conn.user());
    (*downstream)->Cleanup();
    delete downstream;
  };
  return callbacks;
}

Status CoordServer::Start(const ListenAddress& listen) {
  if (reactor_ != nullptr) return Status::Invalid("coordinator already started");
  // No metrics sink: `metrics` stays the workers' scatter-gather.
  auto reactor =
      std::make_unique<ReactorServer>(MakeCallbacks(), ReactorOptions());
  RH_RETURN_NOT_OK(reactor->Start(listen));
  reactor_ = std::move(reactor);
  bound_ = reactor_->bound();
  supervisor_->Start();
  return Status();
}

void CoordServer::Stop() {
  if (reactor_ == nullptr) return;
  // Abort-closes every downstream; each on_close shuts its upstreams, so
  // the reader threads wind down and the gate empties.
  reactor_->Stop();
  if (!gate_.WaitIdle(15000)) {
    std::fprintf(stderr,
                 "rankhow_coord: threads did not quiesce within 15s\n");
  }
  supervisor_->Stop();
  reactor_.reset();
}

CoordCounters CoordServer::counters() const {
  CoordCounters counters;
  counters.connections = c_connections_.load();
  counters.sessions_opened = c_sessions_opened_.load();
  counters.commands_proxied = c_commands_proxied_.load();
  counters.local_errors = c_local_errors_.load();
  counters.failovers = c_failovers_.load();
  counters.failover_sessions = c_failover_sessions_.load();
  counters.failover_failures = c_failover_failures_.load();
  counters.replayed_edits = c_replayed_edits_.load();
  counters.replay_errors = c_replay_errors_.load();
  return counters;
}

}  // namespace rankhow
