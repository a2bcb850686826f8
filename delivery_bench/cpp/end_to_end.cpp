// Untraced run: the end-to-end metrics.
#include <optional>
#include <stdexcept>
#include <string>

#include "report.h"
#include "rig.h"

namespace delivery_bench {

namespace {

/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 15;

}  // namespace

Report run_end_to_end(const Workload& w, double seconds) {
  Report rep;
  std::uint64_t violations = 0;
  Rig rig = set_up(w, false);
  std::vector<double> setups{rig.setup_s};
  const Phase phase = run_phase(rig, seconds, 0, nullptr);
  // Read inside the timed phase, at op kRssAtOps, before the extra
  // set-ups: each fresh service starts threads whose allocator arenas stay
  // behind, so a peak read later would follow how many of them ran rather
  // than what serving the workload needs.
  const double peak_rss = phase.peak_rss_mb;
  const std::vector<Stamped>& opens = phase.open_us;
  const auto sim_threads = rig.service->metrics().gauge("sim.threads").value();
  rep.detail.set("delivery_config", describe_config(rig.service->config()));
  violations += tear_down(rig);
  for (std::size_t k = 1; k < kSetups; ++k) {
    Rig extra = set_up(w, false);
    setups.push_back(extra.setup_s);
    violations += tear_down(extra);
  }

  rep.attempted = phase.ops + phase.opener_attempted;
  rep.failed = phase.failed + phase.opener_failed + violations;

  // Timings are medians over one-second windows (grown until each can
  // carry the percentile), so a burst of noise on the box moves only the
  // windows it falls in. Opens too few for one window give their median.
  const auto p50 = [](const std::vector<Stamped>& samples, const char* what) {
    if (auto v = windowed_percentile(samples, 0.50)) return *v;
    if (samples.empty()) throw std::runtime_error(std::string("no ") + what);
    return median(values(samples));
  };
  rep.add("ops_per_s", median(phase.slice_ops_per_s), "1/s");
  rep.add("latency_p50_us", p50(phase.latency_us, "ops"), "us");
  rep.add("session_open_p50_us", p50(opens, "opens"), "us");
  rep.add("cpu_us_per_op", median(phase.slice_cpu_us_per_op), "us");
  rep.add("peak_rss_mb", peak_rss, "MB");
  rep.add("setup_s", median(setups), "s");

  jhdl::Json& d = rep.detail;
  // The p99s follow the box's scheduling more than the code (see
  // README.md), so they go into the record, not the bounded metrics; the
  // traced run reports them as per-layer metrics. Short of ten samples
  // beyond rank 0.99 each gives way to the highest rank that has them,
  // and the record names the fraction.
  auto tail = [&](const char* name, const std::vector<Stamped>& samples) {
    const auto windowed = windowed_percentile(samples, 0.99);
    const auto fallback = tail_percentile(values(samples), 0.99);
    if (!windowed && !fallback) return;
    d.set(name, windowed ? *windowed : fallback->value);
    d.set(std::string(name) + "_q", windowed ? 0.99 : fallback->q);
  };
  tail("latency_p99_us", phase.latency_us);
  tail("session_open_p99_us", opens);
  d.set("sim_threads", static_cast<double>(sim_threads));
  d.set("ops", static_cast<double>(phase.ops));
  d.set("phase_seconds", phase.seconds);
  d.set("session_opens", static_cast<double>(opens.size()));
  d.set("drain_violations", static_cast<double>(violations));
  d.set("failed_frac", rep.attempted > 0 ? static_cast<double>(rep.failed) /
                                               static_cast<double>(rep.attempted)
                                         : 1.0);
  jhdl::Json slices = jhdl::Json::array();
  for (double v : phase.slice_ops_per_s) slices.push(v);
  d.set("slice_ops_per_s", std::move(slices));
  // The box's CPU steal per slice: how much of the run the hypervisor
  // gave to other tenants, for reading a slow run.
  jhdl::Json steal = jhdl::Json::array();
  for (double v : phase.slice_steal_s) steal.push(v);
  d.set("slice_steal_s", std::move(steal));
  jhdl::Json cpu = jhdl::Json::array();
  for (double v : phase.slice_cpu_us_per_op) cpu.push(v);
  d.set("slice_cpu_us_per_op", std::move(cpu));
  d.set("slice_ops_per_s_iqr_frac",
        phase.slice_ops_per_s.size() >= 2
            ? quartiles(phase.slice_ops_per_s).iqr_frac()
            : 0.0);
  jhdl::Json setup_samples = jhdl::Json::array();
  for (double v : setups) setup_samples.push(v);
  d.set("setup_s_samples", std::move(setup_samples));
  return rep;
}

}  // namespace delivery_bench
