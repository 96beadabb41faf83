#ifndef RANKHOW_UTIL_HISTOGRAM_H_
#define RANKHOW_UTIL_HISTOGRAM_H_

/// \file histogram.h
/// Lock-free latency histograms for the serving stack (the `metrics` wire
/// verb; see docs/OPERATIONS.md "The metrics verb").
///
/// Shape: recording happens on hot threads (reactor event loops, strand
/// pool completions) and must never contend; reading happens rarely (a
/// `metrics` request) and may be slow. So a histogram is a fixed array of
/// relaxed atomic counters over log2 microsecond buckets, *sharded* — each
/// recording thread hashes to one of a small fixed set of shard arrays, so
/// two event loops never bounce the same cache line — and a read merges
/// the shards into a plain snapshot. Recording is wait-free; snapshots are
/// not atomic across buckets (counts recorded mid-merge may straddle), which
/// is fine for an operational metric.
///
/// Quantiles are estimated from the merged buckets by linear interpolation
/// inside the winning bucket: with log2 buckets the estimate is within 2x
/// of the true value, which is the operationally useful precision for a
/// latency percentile (the bucket boundaries, not the interpolation, carry
/// the information).

#include <atomic>
#include <cstdint>
#include <string>

namespace rankhow {

/// Merged, plain-value view of one histogram (see LatencyHistogram::
/// Snapshot). All latencies in microseconds.
struct HistogramSnapshot {
  static constexpr int kBuckets = 40;
  uint64_t buckets[kBuckets] = {0};
  uint64_t count = 0;
  uint64_t sum_usec = 0;
  uint64_t max_usec = 0;

  double MeanUsec() const {
    return count > 0 ? static_cast<double>(sum_usec) / count : 0.0;
  }
  /// Estimated q-quantile (q in [0,1]) in microseconds, interpolated
  /// within the winning log2 bucket. 0 when empty.
  double QuantileUsec(double q) const;
};

/// One log-bucketed latency histogram: bucket b counts samples in
/// [2^b, 2^(b+1)) microseconds (bucket 0 additionally holds sub-usec
/// samples). Sharded: Record() touches only the calling thread's shard.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = HistogramSnapshot::kBuckets;
  /// Enough shards that a handful of event loops plus the strand pool
  /// rarely collide; each shard's counters are padded apart by layout.
  static constexpr int kShards = 4;

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Wait-free; safe from any thread.
  void Record(uint64_t usec);

  /// Merges every shard into one plain snapshot.
  HistogramSnapshot Snapshot() const;

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> buckets[kBuckets] = {};
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum_usec{0};
    std::atomic<uint64_t> max_usec{0};
  };
  Shard shards_[kShards];
};

/// The wire verbs a latency histogram is kept for. kEdit covers every
/// session-script command except `solve` (constraint edits re-solve too,
/// but their latency profile is the interesting split).
enum class WireVerb {
  kOpen = 0,
  kClose,
  kStats,
  kMetrics,
  kDeadline,
  kFrame,
  kQuit,
  kEdit,
  kSolve,
};
constexpr int kNumWireVerbs = 9;
const char* WireVerbName(WireVerb verb);

/// Everything the serving transport + wire layer counts, shared by the
/// reactor (connection/backpressure gauges) and the wire dispatch
/// (per-verb latencies). One instance per server process; plain struct so
/// tests can own one on the stack.
struct ServerMetrics {
  LatencyHistogram per_verb[kNumWireVerbs];

  // -------- transport gauges (maintained by the reactor) --------
  std::atomic<int64_t> connections_current{0};
  std::atomic<int64_t> connections_peak{0};
  std::atomic<int64_t> connections_total{0};
  /// Complete binary frames decoded across all connections.
  std::atomic<int64_t> frames_binary{0};
  /// Connections abort-closed because their bounded write queue overflowed
  /// (a stalled reader), by idle timeout, and by EOF/transport error — the
  ///`closed_aborted` causes the stats verb distinguishes.
  std::atomic<int64_t> backpressure_closes{0};
  std::atomic<int64_t> idle_closes{0};
  std::atomic<int64_t> eof_closes{0};
  /// High-water mark of any single connection's queued write bytes.
  std::atomic<int64_t> writes_queued_peak{0};
  /// Short/interrupted socket writes the reactor retried instead of
  /// failing (partial sends and EINTR).
  std::atomic<int64_t> writes_retried{0};
  /// Requests dropped because a frame/line failed to decode (the
  /// connection abort-closes; siblings are untouched).
  std::atomic<int64_t> protocol_errors{0};

  void RecordVerb(WireVerb verb, uint64_t usec) {
    per_verb[static_cast<int>(verb)].Record(usec);
  }

  /// Monotonically raises a peak gauge.
  static void RaisePeak(std::atomic<int64_t>& peak, int64_t value);

  /// The single-line `ok metrics ...` body: gauges plus
  /// `VERB.count/.mean_us/.p50_us/.p99_us/.max_us` for every verb with
  /// samples (see docs/PROTOCOL.md).
  std::string RenderWireLine() const;
  /// The transport fields the `stats` verb appends (connections,
  /// frames_binary, backpressure_closes, writes_queued_peak, and the
  /// aborted_idle/aborted_backpressure/aborted_eof split).
  std::string RenderStatsFields() const;
};

}  // namespace rankhow

#endif  // RANKHOW_UTIL_HISTOGRAM_H_
