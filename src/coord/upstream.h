#ifndef RANKHOW_COORD_UPSTREAM_H_
#define RANKHOW_COORD_UPSTREAM_H_

/// \file upstream.h
/// The coordinator's half of a proxied worker connection: forward wire
/// lines verbatim, track every in-flight request, and hand the unacked
/// tail to the failover machinery when the worker dies.
///
/// Response matching leans on two worker invariants (src/server/wire.cc):
///
///   * command responses carry `line=N` where N is the WORKER-side line
///     number of the request — and the coordinator sends exactly one line
///     per ProxyEntry, so its per-connection send counter IS the worker's
///     line counter; `line=N` keys `pending_` directly;
///   * non-command acks (open/close/deadline) are emitted in request
///     order: deadline acks are synchronous in on_message, open/close
///     acks run deferred with the connection's INPUT PAUSED until the
///     deferred work finishes (ReactorConn::Defer), so no later request
///     is even read before the earlier verb's ack is queued. A FIFO of
///     outstanding verb entries therefore matches by shape in order.
///
/// The one ambiguous shape is a bare `err CLIENT msg` (no line=): either
/// a verb failure or a synchronous submit rejection (overload shedding).
/// The verb FIFO gets first claim; otherwise the oldest pending command
/// for that client is charged. Either way the payload is forwarded to
/// the downstream verbatim, so a misattribution under shedding costs
/// bookkeeping accuracy, never protocol bytes.
///
/// Forward never blocks: coordinator event loops call it. A line goes
/// straight to the socket when it has room; otherwise it joins an outbox
/// that the connection's writer thread flushes. A worker that leaves
/// more than 4 MiB unread counts as stalled and its connection breaks,
/// as if it had died, so the failover machinery takes over.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "coord/shard_map.h"
#include "net/dial.h"
#include "util/status.h"

namespace rankhow {

/// Tracks detached helper threads so CoordServer::Stop can wait for
/// quiescence instead of racing reader teardown at shutdown.
class ThreadGate {
 public:
  void Enter();
  void Exit();
  /// True when all entered threads exited within timeout_ms.
  bool WaitIdle(int timeout_ms);

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int active_ = 0;
};

/// One proxied request: the exact line sent upstream plus the routing
/// metadata needed to deliver (or replay) its response.
struct ProxyEntry {
  enum class Kind { kOpen, kClose, kCommand, kDeadline };

  Kind kind = Kind::kCommand;
  std::string payload;          ///< exact wire line sent to the worker
  std::string client;           ///< owning client ("" for deadline)
  bool is_edit = false;         ///< state-mutating command (not solve)
  bool swallow = false;         ///< coordinator consumes the response
  int64_t downstream_line = 0;  ///< downstream request line (rewritten in)
};

/// A session-traffic connection to one worker. Forward() records the
/// entry and queues its payload; a detached reader thread matches each
/// worker response back to its entry and runs on_response (line numbers
/// already rewritten to downstream numbering). When the connection dies
/// with requests still unacked, on_broken receives them in send order —
/// the coordinator replays them onto a replacement worker.
class UpstreamConn : public std::enable_shared_from_this<UpstreamConn> {
 public:
  struct Callbacks {
    /// One matched response. Runs on the reader thread with no
    /// UpstreamConn lock held (it may take downstream locks).
    std::function<void(const ProxyEntry&, const std::string& response)>
        on_response;
    /// Connection death with the unacked entries in send order. Not
    /// fired after Shutdown(). Runs on the reader thread, no lock held.
    /// `conn` identifies the dead connection (the coordinator may have
    /// already replaced it in its per-worker table).
    std::function<void(UpstreamConn* conn, std::vector<ProxyEntry> unacked)>
        on_broken;
  };

  /// Connects and starts the reader and writer threads. The reader keeps
  /// a shared_ptr to the connection and joins the writer before it exits,
  /// so dropping the returned pointer never races either.
  static Result<std::shared_ptr<UpstreamConn>> Dial(const WorkerSpec& worker,
                                                    int dial_timeout_ms,
                                                    Callbacks callbacks,
                                                    ThreadGate* gate);

  ~UpstreamConn() = default;
  UpstreamConn(const UpstreamConn&) = delete;
  UpstreamConn& operator=(const UpstreamConn&) = delete;

  /// Queues `entry.payload` as the connection's next line; never blocks.
  /// False when the connection has already failed — the entry was NOT
  /// accepted and the caller must re-route it. True means the entry is
  /// owned here: it either gets a response or rides the on_broken replay
  /// (a send that breaks the connection mid-call still returns true for
  /// exactly this reason — no entry may be owned twice).
  bool Forward(ProxyEntry entry);

  /// Bounds a drain: if the connection is still up at `deadline`, it
  /// breaks as a worker death would, and on_broken gets the unacked tail.
  void BreakAt(std::chrono::steady_clock::time_point deadline);

  int64_t Pending() const;
  bool failed() const;
  const std::string& spec() const { return worker_.spec; }
  const WorkerSpec& worker() const { return worker_; }

  /// Closes the connection without firing on_broken (downstream quit or
  /// abort: the worker's connection-scoped close semantics take over).
  void Shutdown();

 private:
  explicit UpstreamConn(WorkerSpec worker) : worker_(std::move(worker)) {}

  void ReaderLoop();
  /// Flushes the outbox with blocking sends, and enforces BreakAt.
  void WriterLoop();
  /// Fails the connection and shuts its socket, which wakes the reader
  /// into on_broken. `why` (may be null) is logged. Called under mu_.
  void BreakLocked(const char* why);
  /// Pops the entry a response belongs to. False = unmatchable (logged
  /// and dropped). Called under mu_.
  bool MatchLocked(const std::string& response, ProxyEntry* entry);
  /// Marks the connection failed and returns the unacked tail in send
  /// order. Empty on second call — on_broken fires at most once.
  std::vector<ProxyEntry> CollectBroken();

  const WorkerSpec worker_;
  Callbacks callbacks_;
  ThreadGate* gate_ = nullptr;

  mutable std::mutex mu_;
  LineClient client_;
  int64_t seq_ = 0;  ///< lines sent == worker-side line numbers
  std::map<int64_t, ProxyEntry> pending_;
  std::deque<int64_t> verb_order_;  ///< outstanding non-command seqs
  bool failed_ = false;
  bool shutdown_ = false;

  // Write side: Forward appends here when the socket is full.
  std::condition_variable writer_cv_;
  std::string outbox_;
  bool writing_ = false;  ///< the writer holds a batch taken from outbox_
  bool closed_ = false;   ///< the reader ended; the writer exits
  std::optional<std::chrono::steady_clock::time_point> break_at_;
  std::thread writer_;    ///< joined by the reader
};

}  // namespace rankhow

#endif  // RANKHOW_COORD_UPSTREAM_H_
