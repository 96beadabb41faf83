#ifndef RANKHOW_NET_REACTOR_H_
#define RANKHOW_NET_REACTOR_H_

/// \file reactor.h
/// The serving transport: an epoll reactor that owns every connection
/// descriptor and multiplexes thousands of mostly-idle connections over a
/// small fixed thread set (DESIGN.md "Network transport & routing"). It
/// replaced the thread-per-connection SocketServer: connections here are
/// long-lived interactive sessions whose expensive work runs on the
/// registry's strand pool, so parking one OS thread per client bought
/// nothing but stacks once connection counts grew past the low hundreds.
///
/// Threads and ownership:
///
///   * one **accept thread**, blocking in accept(), handing each new fd
///     round-robin to an event loop;
///   * N **event loops** (ReactorOptions::num_loops, default
///     min(4, hw_concurrency)), each an epoll_wait cycle plus an eventfd
///     for cross-thread wakes. A connection's fd belongs to exactly one
///     loop for its whole life; every epoll_ctl and the final close(fd)
///     happen on that loop's thread (the single-writer socket rule — no
///     fd-recycling races by construction);
///   * one **ops thread** shared by all loops, running deferred work:
///     protocol verbs that may block (Defer below) and connection
///     teardown (on_close), which drains session strands. Event loops
///     never block on anything but epoll_wait.
///
/// The reactor is protocol-free. It decodes *messages* (net/frame.h: text
/// lines or length-prefixed binary frames, per-connection mode) and hands
/// them to ReactorCallbacks::on_message on the loop thread; everything
/// about verbs, sessions, and response grammar lives in the handler
/// (server/wire.h's MakeWireReactorCallbacks).
///
/// Handler contract, per connection:
///
///   * on_open (loop thread) runs right after accept; its return value is
///     stored as the connection's user state.
///   * on_message (loop thread) must not block. A verb that can block
///     (session open loads CSVs; close drains a strand) must be wrapped in
///     conn.Defer(fn): the reactor pauses the connection's input, runs fn
///     on the ops thread, and resumes input afterwards — one deferred op
///     per connection at a time, so per-connection ordering holds.
///   * Send() is callable from any thread (loop, ops, strand completions)
///     and never blocks: it encodes into the connection's bounded write
///     queue and wakes the owning loop. A peer that stops reading fills
///     the queue to ReactorOptions::max_conn_buffer and is abort-closed
///     (backpressure) — a slow reader costs one connection, never an
///     event loop or a strand.
///   * on_close (ops thread) runs exactly once, after the fd is closed,
///     with the reason; it must release the user state. After it returns
///     the reactor may free the connection object.
///
/// Idle and drain deadlines ride a coarse once-per-second sweep on each
/// loop (replacing the old SO_RCVTIMEO): a connection silent past
/// idle_timeout_seconds abort-closes as kIdleTimeout; a gracefully-closing
/// connection whose final bytes cannot be flushed within
/// drain_deadline_seconds is cut off.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/dial.h"
#include "net/frame.h"
#include "util/status.h"

namespace rankhow {

struct ServerMetrics;

/// Why a connection ended; handed to on_close and bucketed into the
/// metrics gauges (eof/idle/backpressure are the `closed_aborted` causes
/// the stats verb distinguishes).
enum class CloseReason {
  kEof,            ///< peer closed or transport error (abort)
  kProtocolError,  ///< unrecoverable framing error (abort)
  kIdleTimeout,    ///< silent past --idle-timeout (abort)
  kBackpressure,   ///< write queue overflow — stalled reader (abort)
  kLocalClose,     ///< handler-requested graceful close (after quit)
  kServerStop,     ///< reactor shutting down
};

const char* CloseReasonName(CloseReason reason);

struct ReactorOptions {
  /// Event loop threads; 0 = min(4, hardware_concurrency).
  int num_loops = 0;
  /// Abort-close a connection silent for this long; 0 = never.
  int idle_timeout_seconds = 0;
  /// Queued-write-bytes bound per connection before a backpressure
  /// abort-close.
  size_t max_conn_buffer = 4u << 20;
  /// Cap on a graceful close flushing its final bytes.
  int drain_deadline_seconds = 10;
  /// Test hook: SO_SNDBUF for accepted sockets (tiny values make a
  /// stalled reader hit max_conn_buffer quickly). 0 = kernel default.
  int sndbuf_bytes = 0;
  /// Transport gauge sink (connections, frames, closes, write peaks);
  /// may be null.
  ServerMetrics* metrics = nullptr;
};

class ReactorServer;

/// One live connection, as seen by the handler. Created and destroyed by
/// the reactor; handler code only ever borrows it (valid from on_open
/// until on_close returns).
class ReactorConn : public std::enable_shared_from_this<ReactorConn> {
 public:
  int id() const { return id_; }
  void* user() const { return user_; }

  /// Queues one protocol message, encoded per the connection's current
  /// frame mode, and wakes the owning loop. Any thread; never blocks.
  /// False (message dropped) once the connection is closing — callers are
  /// late strand completions and must treat that as "peer already gone".
  bool Send(const std::string& payload);

  /// Switches framing for input and all subsequently queued output. Call
  /// only from on_message (loop thread), after Send()ing the negotiation
  /// ack in the old mode — queue order is encode order, so the ack stays
  /// readable and everything after it is framed in the new mode.
  void SwitchMode(FrameMode mode);
  FrameMode mode() const;

  /// Defers blocking work from on_message: pauses this connection's input
  /// (EPOLLIN disarmed, buffered messages held), runs `fn` on the ops
  /// thread, then resumes input. Only from on_message, at most once per
  /// delivered message.
  void Defer(std::function<void()> fn);

  /// Requests a graceful local close: pending writes flush (bounded by
  /// drain_deadline_seconds), then the fd closes and on_close runs with
  /// kLocalClose. Any thread.
  void Close();

 private:
  friend class ReactorServer;
  ReactorConn() = default;

  // -------- immutable after accept --------
  ReactorServer* server_ = nullptr;
  int loop_index_ = 0;
  int id_ = 0;
  int fd_ = -1;

  // -------- loop-thread-only --------
  void* user_ = nullptr;
  FrameDecoder decoder_;
  bool want_write_armed_ = false;  ///< EPOLLOUT currently in the mask
  bool paused_ = false;            ///< Defer in flight; EPOLLIN disarmed
  bool closed_ = false;            ///< fd closed; ignore stale events
  int64_t last_active_tick_ = 0;   ///< idle sweep clock (seconds)
  int64_t drain_deadline_tick_ = 0;

  // -------- cross-thread (guarded by mu_) --------
  mutable std::mutex mu_;
  std::string outbox_;          ///< encoded bytes not yet written
  size_t outbox_off_ = 0;       ///< bytes of outbox_ already sent
  FrameMode send_mode_ = FrameMode::kText;
  bool closing_ = false;        ///< Send() rejects; set before fd close
  bool drain_requested_ = false;
  bool kick_pending_ = false;   ///< a flush op is already queued
};

struct ReactorCallbacks {
  /// Loop thread, after accept. Return value becomes conn.user().
  std::function<void*(ReactorConn&)> on_open;
  /// Loop thread, one complete decoded message. Must not block (Defer).
  std::function<void(ReactorConn&, const std::string& payload)> on_message;
  /// Loop thread, on a fatal framing error, before the abort-close: a
  /// last chance to Send a diagnostic (best-effort — the reactor flushes
  /// what it can). Optional.
  std::function<void(ReactorConn&, const std::string& error)>
      on_protocol_error;
  /// Ops thread, exactly once, after the fd closed. Must release user().
  std::function<void(ReactorConn&, CloseReason)> on_close;
};

class ReactorServer {
 public:
  ReactorServer(ReactorCallbacks callbacks, ReactorOptions options);
  /// Stop()s if still running.
  ~ReactorServer();

  ReactorServer(const ReactorServer&) = delete;
  ReactorServer& operator=(const ReactorServer&) = delete;

  /// Binds, listens, and starts the accept + loop + ops threads. For TCP
  /// port 0 the kernel-chosen port is in bound()/bound_spec() on return.
  Status Start(const ListenAddress& address);

  const ListenAddress& bound() const { return bound_; }
  std::string bound_spec() const { return ListenSpecString(bound_); }

  /// Total connections accepted so far.
  int connections_accepted() const;
  /// Event loop threads actually running.
  int num_loops() const { return static_cast<int>(loops_.size()); }

  /// Blocks until Stop().
  void Wait();

  /// Stops accepting, abort-closes every live connection (kServerStop,
  /// on_close runs for each), joins all threads. Idempotent.
  void Stop();

 private:
  struct Loop;
  using ConnPtr = std::shared_ptr<ReactorConn>;

  void AcceptLoop();
  void RunLoop(Loop& loop);
  void OpsLoop();
  void WakeLoop(Loop& loop);
  void PostToLoop(Loop& loop, std::function<void()> fn);
  void PostToOps(std::function<void()> fn);

  // -------- loop-thread helpers (run on conn's owning loop) --------
  void AddConn(Loop& loop, const ConnPtr& conn);
  void HandleReadable(Loop& loop, const ConnPtr& conn);
  void DrainMessages(Loop& loop, const ConnPtr& conn);
  /// Writes as much of the outbox as the socket accepts; arms/disarms
  /// EPOLLOUT; finishes a drain-close when the outbox empties.
  void FlushConn(Loop& loop, const ConnPtr& conn);
  void UpdateEpoll(Loop& loop, ReactorConn& conn);
  /// Closes the fd now and hands teardown to the ops thread.
  void CloseConn(Loop& loop, const ConnPtr& conn, CloseReason reason);
  void BeginDrain(Loop& loop, const ConnPtr& conn);
  void SweepDeadlines(Loop& loop);

  void CountClose(CloseReason reason);

  ReactorCallbacks callbacks_;
  ReactorOptions options_;

  int listen_fd_ = -1;
  ListenAddress bound_;
  std::string unlink_path_;

  std::vector<std::unique_ptr<Loop>> loops_;
  std::thread accept_thread_;
  std::thread ops_thread_;

  // Ops queue: deferred verbs + teardowns, FIFO across all loops.
  std::mutex ops_mu_;
  std::condition_variable ops_cv_;
  std::deque<std::function<void()>> ops_queue_;
  bool ops_stop_ = false;

  mutable std::mutex mu_;
  std::condition_variable stop_cv_;
  bool started_ = false;
  bool stopping_ = false;
  bool stopped_ = false;
  std::atomic<int> next_conn_id_{0};
  std::atomic<int> round_robin_{0};

  friend class ReactorConn;
};

}  // namespace rankhow

#endif  // RANKHOW_NET_REACTOR_H_
