// The two run modes and the numbers they report.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/json.h"
#include "workloads.h"

namespace delivery_bench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the metrics, the op counts behind `correct`,
/// and a detail record for the results file.
struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  jhdl::Json detail = jhdl::Json::object();

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// The value of a percentile the metric cannot do without; throws when
/// the samples were too few to report it.
inline double require(std::optional<double> v, const char* what) {
  if (!v) throw std::runtime_error(std::string("too few samples for ") + what);
  return *v;
}

/// Untraced run: set-up repeated, then the timed closed loops. Reports
/// every end-to-end metric.
Report run_end_to_end(const Workload& workload, double seconds);

/// Traced run: an untraced reference phase, a traced phase, then direct
/// probes of each layer on the workload's own inputs. Reports every
/// per-layer metric and writes the merged Chrome trace to `trace_path`
/// (skipped when empty).
Report run_traced(const Workload& workload, double seconds,
                  const std::string& trace_path);

}  // namespace delivery_bench
