// rankhow_perfbench: runs one benchmark workload and prints its metrics.
//
//   rankhow_perfbench --workload=oneshot-exact|symgd-1m|session-mix
//                     --seed=N --seconds=S --trace=0|1 --run-dir=DIR
//
// Human-readable lines first; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}. Per-op outcomes go
// to DIR/results.tsv (run.py compares them with the stored reference for
// the default seed) and, in traced runs, the spans to DIR/spans.jsonl.
// Normally started through perfbench/run.py, which builds this binary,
// prepares DIR and checks the reference.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace {

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* out) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

void PrintJson(const perfbench::Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "workload", &value)) {
      options.workload = value;
    } else if (ParseFlag(arg, "seed", &value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "seconds", &value)) {
      options.seconds = std::atof(value.c_str());
    } else if (ParseFlag(arg, "trace", &value)) {
      options.trace = value == "1";
    } else if (ParseFlag(arg, "run-dir", &value)) {
      options.run_dir = value;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }
  if (options.run_dir.empty() || !(options.seconds > 0)) {
    std::cerr << "need --run-dir and --seconds > 0\n";
    return 2;
  }
  std::printf("build: %s, workload %s, seed %llu, %g s, trace %d\n",
              PERFBENCH_BUILD_TYPE, options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);

  perfbench::Report report;
  rankhow::Status status = rankhow::Status::OK();
  if (options.workload == "oneshot-exact") {
    status = perfbench::RunOneshotExact(options, &report);
  } else if (options.workload == "symgd-1m") {
    status = perfbench::RunSymGd1m(options, &report);
  } else if (options.workload == "session-mix") {
    status = perfbench::RunSessionMix(options, &report);
  } else {
    std::cerr << "unknown workload: " << options.workload << "\n";
    return 2;
  }
  if (!status.ok()) {
    std::cerr << "workload failed: " << status.ToString() << "\n";
    return 1;
  }

  std::ofstream results(options.run_dir + "/results.tsv");
  for (const std::string& line : report.results) results << line << "\n";
  if (!results) {
    std::cerr << "cannot write results.tsv\n";
    return 1;
  }

  // A traced run reports the per-layer metrics; an untraced one the
  // end-to-end metrics (the traced end-to-end figures were printed above).
  std::set<std::string> keep;
  if (options.trace) {
    for (const auto& def : perfbench::LayerMetricDefs()) keep.insert(def.name);
  } else {
    keep = {"setup_s", "ops_per_s", "op_ms_p50", "op_ms_tail", "peak_rss_mb"};
  }
  for (auto it = report.metrics.begin(); it != report.metrics.end();) {
    it = keep.count(it->first) ? std::next(it) : report.metrics.erase(it);
  }
  if (report.metrics.size() != keep.size()) {
    std::cerr << "workload reported " << report.metrics.size() << " of "
              << keep.size() << " metrics\n";
    return 1;
  }
  PrintJson(report);
  return 0;
}
