#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared machinery of the benchmark binary: run options, the span recorder
// the traced runs use, latency summaries, and the report every workload
// fills in and main() prints.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Scratch directory for generated inputs, journals and caches; created
  // fresh by the caller for every run.
  std::string run_dir;
};

// Seconds on the steady clock since process start.
double Now();

// --------------------------------------------------------------- tracing

// Spans recorded around calls into the program's public functions. A span
// has a name (layer-qualified, e.g. "core.model_build"), start/end times,
// its parent span (the innermost open span on the same thread) and the id
// of the op it belongs to. Spans stay in memory until WriteJsonl.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  int64_t op = -1;
};

class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // Opens a span on the calling thread and returns its index.
  int Begin(const std::string& name, int64_t op);
  void End(int index);

  struct LayerTime {
    int64_t spans = 0;
    double self_ms = 0;       // summed self time (duration minus children)
    double inclusive_ms = 0;  // summed duration
  };
  // Per span name. Children of one span run on its thread, one at a time,
  // so self time is the duration minus the summed child durations.
  std::map<std::string, LayerTime> Layers() const;

  rankhow::Status WriteJsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span; a null recorder makes it a no-op (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name, int64_t op)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

// ----------------------------------------------------------- statistics

double Median(std::vector<double> values);
// "v1 v2 ..." with 4 significant digits, for printing repeated timings.
std::string FormatSeries(const std::vector<double>& values);

// Latency summary of one set of op samples (milliseconds).
struct LatencySummary {
  int64_t samples = 0;
  double p50 = 0;
  // Value at tail_pct: the highest of 50/75/90/95/99 that leaves at least
  // ten samples above it (100 = the maximum, when fewer than 20 samples).
  double tail = 0;
  double tail_pct = 100;
};
LatencySummary Summarize(std::vector<double> ms);

// The process's peak resident set (VmHWM) in MiB.
double PeakRssMb();

// ---------------------------------------------------------------- report

struct Metric {
  double value = 0;
  std::string unit;
};

struct Report {
  std::map<std::string, Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  // Per-op outcomes, "key<TAB>value", that run.py compares with the stored
  // reference (perfbench/reference/<workload>.tsv).
  std::vector<std::string> results;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  // Counts one failed op and prints why.
  void FailOp(const std::string& why);
  // A check that is not tied to one op (the run is not correct).
  void FailCheck(const std::string& why);
};

// Fills the end-to-end metrics every workload reports.
void SetEndToEnd(Report* report, double setup_s, double measured_s,
                 int64_t completed, const LatencySummary& latency);

// ------------------------------------------------------------ per-layer

// The per-layer metric names the traced run reports (BENCHMARK.json
// per_layer), with units. Every traced run prints every one of them.
struct LayerMetricDef {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetricDef>& LayerMetricDefs();

// What a workload measured for one per-layer metric.
struct LayerValue {
  double value = 0;
  int64_t spans = 0;
  std::string note;
};
using LayerValues = std::map<std::string, LayerValue>;

// Mean self (or inclusive) time per span of `span_name`, in ms.
LayerValue MeanSpanMs(const SpanRecorder& recorder,
                      const std::string& span_name, bool inclusive = false);

// Prints the per-layer table (absent metrics say why) and stores every
// defined metric into report->metrics; `absent_note` explains metrics the
// workload does not exercise.
void EmitLayers(const LayerValues& values, const std::string& absent_note,
                Report* report);

// Prints "tracing overhead" lines: traced minus untraced end-to-end.
void PrintOverhead(const std::string& workload, double untraced_ops_per_s,
                   const LatencySummary& untraced, double traced_ops_per_s,
                   const LatencySummary& traced);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
