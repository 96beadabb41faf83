#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

namespace {
const auto kEpoch = std::chrono::steady_clock::now();
thread_local int tls_open_span = -1;
}  // namespace

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

int SpanRecorder::Begin(const std::string& name, int64_t op) {
  Span span;
  span.name = name;
  span.parent = tls_open_span;
  span.op = op;
  int index;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<int>(spans_.size());
    spans_.push_back(std::move(span));
  }
  tls_open_span = index;
  const double start = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].start = start;
  return index;
}

void SpanRecorder::End(int index) {
  const double end = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].end = end;
  tls_open_span = spans_[index].parent;
}

std::map<std::string, SpanRecorder::LayerTime> SpanRecorder::Layers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ms[span.parent] += 1e3 * (span.end - span.start);
    }
  }
  std::map<std::string, LayerTime> layers;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    LayerTime& layer = layers[span.name];
    const double ms = 1e3 * (span.end - span.start);
    ++layer.spans;
    layer.inclusive_ms += ms;
    layer.self_ms += ms - child_ms[i];
  }
  return layers;
}

rankhow::Status SpanRecorder::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return rankhow::Status::IoError("cannot write " + path);
  char line[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                  "\"end_us\":%.3f,\"parent\":%d,\"op\":%lld}\n",
                  i, s.name.c_str(), 1e6 * s.start, 1e6 * s.end, s.parent,
                  static_cast<long long>(s.op));
    out << line;
  }
  if (!out) return rankhow::Status::IoError("short write to " + path);
  return rankhow::Status::OK();
}

std::string FormatSeries(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (double v : values) {
    std::snprintf(buf, sizeof(buf), "%s%.4g", out.empty() ? "" : " ", v);
    out += buf;
  }
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

LatencySummary Summarize(std::vector<double> ms) {
  LatencySummary summary;
  summary.samples = static_cast<int64_t>(ms.size());
  if (ms.empty()) return summary;
  summary.p50 = Median(ms);
  std::sort(ms.begin(), ms.end());
  const double n = static_cast<double>(ms.size());
  summary.tail_pct = 100;
  summary.tail = ms.back();
  for (double pct : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Nearest rank; the samples above it number n - rank.
    const size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * n));
    if (n - static_cast<double>(rank) >= 10) {
      summary.tail_pct = pct;
      summary.tail = ms[rank - 1];
      break;
    }
  }
  return summary;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

void Report::FailOp(const std::string& why) {
  ++failed;
  correct = false;
  std::cout << "FAILED op: " << why << "\n";
}

void Report::FailCheck(const std::string& why) {
  correct = false;
  std::cout << "FAILED check: " << why << "\n";
}

void SetEndToEnd(Report* report, double setup_s, double measured_s,
                 int64_t completed, const LatencySummary& latency) {
  report->Set("setup_s", setup_s, "s");
  report->Set("ops_per_s", measured_s > 0 ? completed / measured_s : 0, "1/s");
  report->Set("op_ms_p50", latency.p50, "ms");
  report->Set("op_ms_tail", latency.tail, "ms");
  report->Set("peak_rss_mb", PeakRssMb(), "MiB");
  std::printf("end-to-end: setup_s=%.6f ops_per_s=%.4f op_ms_p50=%.4f "
              "op_ms_tail=%.4f (p%g of %lld op samples) peak_rss_mb=%.1f\n",
              setup_s, report->metrics["ops_per_s"].value, latency.p50,
              latency.tail, latency.tail_pct,
              static_cast<long long>(latency.samples),
              report->metrics["peak_rss_mb"].value);
}

const std::vector<LayerMetricDef>& LayerMetricDefs() {
  static const std::vector<LayerMetricDef> defs = {
      {"util.csv_read_ms", "ms"},
      {"app.assemble_ms", "ms"},
      {"data.scores_ms", "ms"},
      {"data.scores_gbps_computed", "GB/s"},
      {"data.diff_range_ms", "ms"},
      {"data.fused_rank_ms", "ms"},
      {"baselines.ordinal_seed_ms", "ms"},
      {"core.model_build_ms", "ms"},
      {"core.fixed_share", "ratio"},
      {"core.symgd_cell_ms", "ms"},
      {"core.symgd_cells", "count"},
      {"ranking.verify_ms", "ms"},
      {"ranking.exact_cmp_share", "ratio"},
      {"core.presolve_ms", "ms"},
      {"core.spatial_ms", "ms"},
      {"core.spatial_boxes", "count"},
      {"milp.search_ms", "ms"},
      {"milp.nodes", "count"},
      {"lp.pivots", "count"},
      {"lp.pivots_per_node", "ratio"},
      {"lp.warm_share", "ratio"},
      {"session.tighten_ms", "ms"},
      {"session.relax_ms", "ms"},
      {"session.structural_ms", "ms"},
      {"session.resolve_ms", "ms"},
      {"session.model_builds", "per_cmd"},
      {"session.model_patches", "per_cmd"},
      {"session.eps_patches", "per_cmd"},
      {"session.bound_seeds", "per_cmd"},
      {"session.presolve_runs", "per_cmd"},
      {"session.pool_hits", "per_cmd"},
      {"session.root_close_share", "ratio"},
      {"server.op_ms_p50", "ms"},
      {"server.op_ms_tail", "ms"},
      {"server.wait_ms_p50", "ms"},
      {"server.shed", "count"},
      {"server.shared_draws", "per_cmd"},
      {"server.journal_records", "per_cmd"},
      {"server.journal_fsyncs", "per_cmd"},
      {"core.cache_hits", "per_cmd"},
      {"core.cache_demotions", "per_cmd"},
      {"net.ping_ms_p50", "ms"},
      {"net.op_overhead_ms", "ms"},
      {"coord.hop_ms", "ms"},
      {"coord.proxied", "per_cmd"},
      {"coord.failovers", "count"},
  };
  return defs;
}

LayerValue MeanSpanMs(const SpanRecorder& recorder,
                      const std::string& span_name, bool inclusive) {
  LayerValue value;
  auto layers = recorder.Layers();
  auto it = layers.find(span_name);
  if (it == layers.end() || it->second.spans == 0) {
    value.note = "no " + span_name + " spans";
    return value;
  }
  value.spans = it->second.spans;
  value.value =
      (inclusive ? it->second.inclusive_ms : it->second.self_ms) / value.spans;
  value.note =
      inclusive ? "mean inclusive ms per span" : "mean self ms per span";
  return value;
}

void EmitLayers(const LayerValues& values, const std::string& absent_note,
                Report* report) {
  std::printf("per-layer metrics (traced run):\n");
  for (const LayerMetricDef& def : LayerMetricDefs()) {
    auto it = values.find(def.name);
    if (it == values.end()) {
      report->Set(def.name, 0, def.unit);
      std::printf("  %-28s %14s %-7s spans=0  absent: %s\n", def.name, "-",
                  def.unit, absent_note.c_str());
      continue;
    }
    report->Set(def.name, it->second.value, def.unit);
    std::printf("  %-28s %14.6g %-7s spans=%lld  %s\n", def.name,
                it->second.value, def.unit,
                static_cast<long long>(it->second.spans),
                it->second.note.c_str());
  }
}

void PrintOverhead(const std::string& workload, double untraced_ops_per_s,
                   const LatencySummary& untraced, double traced_ops_per_s,
                   const LatencySummary& traced) {
  std::printf(
      "tracing overhead on %s (traced minus untraced, same ops): "
      "ops_per_s %+.4f (%.4f -> %.4f), op_ms_p50 %+.4f ms (%.4f -> %.4f), "
      "op_ms_tail %+.4f ms (p%g -> p%g)\n",
      workload.c_str(), traced_ops_per_s - untraced_ops_per_s,
      untraced_ops_per_s, traced_ops_per_s, traced.p50 - untraced.p50,
      untraced.p50, traced.p50, traced.tail - untraced.tail,
      untraced.tail_pct, traced.tail_pct);
}

}  // namespace perfbench
