#ifndef RANKHOW_COORD_HEALTH_H_
#define RANKHOW_COORD_HEALTH_H_

/// \file health.h
/// Worker supervision for the shard coordinator: liveness state, the
/// periodic `stats`-ping health checker, and the pooled control
/// connections the scatter-gather verbs ride.
///
/// Each worker has two failure detectors:
///
///   * the periodic probe (every HealthOptions::interval_ms): a `stats`
///     round-trip on a pooled control connection with a hard timeout;
///     `failure_threshold` CONSECUTIVE failures mark the worker down
///     (transient hiccups under load must not trigger failover), one
///     success marks it up again and resets the count;
///   * the fast path (ReportFailure): when a session upstream breaks or a
///     dial is refused, the supervisor probes immediately — a SIGKILLed
///     worker refuses connections within one RTT, so routing and failover
///     see the death in milliseconds instead of waiting out the
///     threshold.
///
/// Down/up transitions are logged to stderr (operators grep for
/// "rankhow_coord: worker"). Aliveness is advisory routing state: a
/// worker marked down serves no NEW opens and triggers failover of its
/// live sessions, but an up-marking never moves sessions back — they
/// stay where failover put them (see docs/OPERATIONS.md).

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "coord/shard_map.h"
#include "net/dial.h"
#include "util/status.h"

namespace rankhow {

struct HealthOptions {
  int interval_ms = 1000;      ///< probe period per worker
  int timeout_ms = 2000;       ///< per-probe response timeout
  int dial_timeout_ms = 2000;  ///< control/upstream connect timeout
  int failure_threshold = 3;   ///< consecutive failures -> down
};

class WorkerSupervisor {
 public:
  WorkerSupervisor(std::vector<WorkerSpec> workers, HealthOptions options);
  ~WorkerSupervisor();

  /// Spawns the probe thread. Workers start optimistically up; the first
  /// probe round corrects that within interval_ms.
  void Start();
  void Stop();

  int num_workers() const { return static_cast<int>(states_.size()); }
  const WorkerSpec& worker(int index) const;
  const HealthOptions& options() const { return options_; }

  bool IsAlive(int index) const;
  int num_up() const;

  /// The fast failure path: probe `index` NOW. Unreachable marks it down
  /// immediately; reachable resets the failure count (the caller's error
  /// was connection-local, not a worker death).
  void ReportFailure(int index);

  /// Marks `index` down without probing — for callers who just proved
  /// unreachability themselves (a failed dial) and cannot afford the
  /// probe's network round-trip (e.g. a failover dialing replacements).
  void ReportUnreachable(int index, const std::string& why);

  /// One request/response round-trip on a pooled control connection, with
  /// the health timeout. The connection returns to the pool on success
  /// and is discarded on any error. Used by probes and by the
  /// stats/metrics scatter-gather.
  Result<std::string> ControlRoundTrip(int index,
                                       const std::string& request);

  struct Counters {
    long long probes = 0;
    long long probe_failures = 0;
    long long down_transitions = 0;
    long long up_transitions = 0;
  };
  Counters counters() const;

 private:
  struct WorkerState {
    WorkerSpec spec;
    std::atomic<bool> up{true};
    std::mutex mu;  // failures + pool
    int consecutive_failures = 0;
    std::vector<std::unique_ptr<LineClient>> control_pool;
  };

  void ProbeLoop();
  void Probe(int index);
  void MarkResult(int index, bool success, const std::string& why);
  std::unique_ptr<LineClient> AcquireControl(int index, Status* error);
  void ReleaseControl(int index, std::unique_ptr<LineClient> client);

  HealthOptions options_;
  std::vector<std::unique_ptr<WorkerState>> states_;

  mutable std::mutex counters_mu_;
  Counters counters_;

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  std::thread probe_thread_;
};

}  // namespace rankhow

#endif  // RANKHOW_COORD_HEALTH_H_
