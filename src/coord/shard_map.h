#ifndef RANKHOW_COORD_SHARD_MAP_H_
#define RANKHOW_COORD_SHARD_MAP_H_

/// \file shard_map.h
/// The coordinator's catalog shard map: which worker serves which dataset
/// (docs/OPERATIONS.md "Distributed serving").
///
/// Two configuration styles, composable:
///
///   --shard-map=nba=host:9001,csrankings=host:9002   explicit pinning
///   --workers=host:9001,host:9002                    auto round-robin
///
/// Explicitly mapped datasets always route to their pinned worker (its
/// journals and warm cache live there). Datasets outside the map are
/// assigned round-robin over the worker list on FIRST open and the
/// assignment is sticky for the coordinator's lifetime — warmth
/// (registry incumbent pools, the persistent warm cache) and journals are
/// per-worker state, so a dataset must not wander between workers while
/// its primary is healthy.
///
/// Routing consults an aliveness predicate (fed by the health checker in
/// coord/health.h): a down primary falls over to the next alive worker in
/// list order WITHOUT rebinding the sticky assignment, so the primary
/// resumes service when it comes back. No alive worker at all is
/// kIoError — the caller turns that into a clean `err` to the client,
/// never a hang.

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "net/dial.h"
#include "util/status.h"

namespace rankhow {

/// One worker endpoint: the parsed address plus the spec string it was
/// configured with (stable key for logs, stats breakdowns, and pooling).
struct WorkerSpec {
  std::string spec;
  ListenAddress address;
};

class ShardMap {
 public:
  ShardMap() = default;
  // Movable despite the mutex guarding sticky state: moves happen during
  // configuration, strictly before concurrent routing starts.
  ShardMap(ShardMap&& other) noexcept
      : workers_(std::move(other.workers_)),
        fixed_(std::move(other.fixed_)),
        sticky_(std::move(other.sticky_)),
        round_robin_(other.round_robin_) {}
  ShardMap& operator=(ShardMap&& other) noexcept {
    workers_ = std::move(other.workers_);
    fixed_ = std::move(other.fixed_);
    sticky_ = std::move(other.sticky_);
    round_robin_ = other.round_robin_;
    return *this;
  }

  /// Parses `--workers` (comma-separated listen specs) and `--shard-map`
  /// (comma-separated `dataset=spec` entries). Workers named only in the
  /// shard map are appended to the worker list; at least one worker must
  /// result. kInvalidArgument on grammar errors or duplicate dataset
  /// entries.
  static Result<ShardMap> Parse(const std::string& workers_spec,
                                const std::string& shard_map_spec);

  const std::vector<WorkerSpec>& workers() const { return workers_; }
  int num_fixed_shards() const { return static_cast<int>(fixed_.size()); }

  /// The worker index `dataset` routes to while every worker is alive
  /// ("" = the default dataset → worker 0), or -1 when the dataset has
  /// neither a fixed nor a sticky assignment yet.
  int PrimaryFor(const std::string& dataset) const;

  /// Routes `dataset` to a worker index: fixed entry, else sticky
  /// assignment, else a fresh round-robin assignment over alive workers
  /// (made sticky). A down choice falls over to the next alive worker in
  /// list order without rebinding. kIoError when nothing is alive.
  /// Thread-safe.
  Result<int> Route(const std::string& dataset,
                    const std::function<bool(int)>& alive);

 private:
  std::vector<WorkerSpec> workers_;
  std::map<std::string, int> fixed_;

  mutable std::mutex mu_;
  std::map<std::string, int> sticky_;
  int round_robin_ = 0;
};

}  // namespace rankhow

#endif  // RANKHOW_COORD_SHARD_MAP_H_
