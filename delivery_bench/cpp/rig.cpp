#include "rig.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/catalog.h"
#include "core/license.h"

namespace delivery_bench {

using jhdl::core::LicensePolicy;
using jhdl::core::LicenseTier;
using jhdl::server::DeliveryConfig;
using jhdl::server::DeliveryService;

namespace {

double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

struct Usage {
  double cpu_us = 0.0;
  double nvcsw = 0.0;
  double steal_s = 0.0;  ///< the box's CPU steal, summed over its CPUs
};

/// Seconds the hypervisor ran something else while one of the box's CPUs
/// had work: the steal column of /proc/stat, summed over CPUs.
double steal_seconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double v[8] = {};
  if (!(stat >> cpu) || cpu != "cpu") return 0.0;
  for (double& x : v) stat >> x;
  return v[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

Usage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  return {us(ru.ru_utime) + us(ru.ru_stime), static_cast<double>(ru.ru_nvcsw),
          steal_seconds()};
}

double thread_count() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      double n = 0;
      status >> n;
      return n;
    }
    status.ignore(4096, '\n');
  }
  return 0.0;
}

}  // namespace

DeliveryConfig service_config(bool tracing) {
  DeliveryConfig config;
  config.tracing = tracing;
  return config;
}

jhdl::Json describe_config(const DeliveryConfig& c) {
  jhdl::Json j = jhdl::Json::object();
  auto n = [](auto v) { return static_cast<double>(v); };
  j.set("workers", n(c.workers));
  j.set("queue_capacity", n(c.queue_capacity));
  j.set("max_sessions", n(c.max_sessions));
  j.set("tenant_max_sessions", n(c.tenant_max_sessions));
  j.set("scheduler_quantum", n(c.scheduler_quantum));
  j.set("overload_flight_threshold", n(c.overload_flight_threshold));
  j.set("idle_timeout_ms", n(c.idle_timeout.count()));
  j.set("resume_window_ms", n(c.resume_window.count()));
  j.set("listen_backlog", n(c.listen_backlog));
  j.set("fault_plan", c.fault_plan != nullptr);
  j.set("tracing", c.tracing);
  j.set("artifact_budget_bytes", n(c.artifact_budget_bytes));
  j.set("audit", c.audit);
  j.set("sim_threads", n(c.sim_threads));
  j.set("admin_http", c.admin_http);
  j.set("log_level", n(static_cast<int>(c.log_level)));
  j.set("log_capacity", n(c.log_capacity));
  j.set("slo_latency_threshold_us", n(c.slo_latency_threshold_us));
  return j;
}

Rig set_up(const Workload& workload, bool tracing) {
  Rig rig;
  for (std::size_t conn = 0; conn < kConnections; ++conn) {
    rig.lanes.push_back(workload.make_lane(conn));
  }
  if (!workload.op_is_session()) rig.opener = workload.make_lane(kOpenerConn);
  const auto t0 = SteadyClock::now();
  rig.service = std::make_unique<DeliveryService>(jhdl::core::standard_catalog(),
                                                  service_config(tracing));
  for (std::size_t conn = 0; conn < kLanes; ++conn) {
    rig.service->add_license(LicensePolicy::make(
        "tenant" + std::to_string(conn), LicenseTier::Evaluation));
  }
  rig.port = rig.service->start();
  for (auto& lane : rig.lanes) lane->open(rig.port);
  rig.setup_s = seconds_since(t0);
  return rig;
}

std::size_t tear_down(Rig& rig) {
  for (auto& lane : rig.lanes) lane->close();
  DeliveryService& s = *rig.service;
  // Byes are one-way; give the loop a moment to reap the sessions.
  const auto t0 = SteadyClock::now();
  while (s.stats().snapshot().sessions_active != 0 && seconds_since(t0) < 5.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto snap = s.stats().snapshot();
  std::size_t violations = 0;
  violations += snap.sessions_active != 0;
  violations += snap.malformed_frames != 0;
  violations += snap.rejections != 0;
  violations += snap.denials != 0;
  s.stop();
  s.artifacts().clear();
  violations += s.artifacts().size() != 0;
  return violations;
}

namespace {

/// The opener waits this many times the length of its last open before
/// the next, so opens take at most a twentieth of its time ...
constexpr double kOpenerIdleFactor = 19.0;
/// ... but at least the phase's length over kOpenerMaxOpens, so fast opens
/// are not a load of their own, and at most its length over
/// kOpenerMinOpens, so slow ones still give session_open_p50_us a few
/// windows of samples.
constexpr double kOpenerMaxOpens = 400.0;
constexpr double kOpenerMinOpens = 40.0;

/// One lane's samples, kept compact (4 bytes an op, in blocks that never
/// move) so the benchmark's own bookkeeping barely shows in the process's
/// peak RSS.
struct LaneSamples {
  std::deque<float> latency_us;
  std::deque<float> open_us;  ///< one per op when ops open sessions
  /// slice_start[s]: index of the first op completed in second s.
  std::vector<std::size_t> slice_start;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
};

std::vector<Stamped> stamp(const std::deque<float>& samples,
                           const std::vector<std::size_t>& slice_start) {
  std::vector<Stamped> out;
  out.reserve(samples.size());
  std::size_t slice = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    while (slice + 1 < slice_start.size() && slice_start[slice + 1] <= i) {
      ++slice;
    }
    out.push_back({static_cast<double>(slice) + 0.5,
                   static_cast<double>(samples[i])});
  }
  return out;
}

}  // namespace

Phase run_phase(Rig& rig, double seconds, std::uint64_t min_ops,
                std::vector<SpanLog>* logs) {
  const std::size_t n = rig.lanes.size();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> completed{0};
  double rss_at_ops = 0.0;  // written by the lane that completes op kRssAtOps
  std::vector<LaneSamples> per_lane(n);
  std::vector<std::thread> threads;
  const Usage u0 = usage();
  const auto t0 = SteadyClock::now();
  for (std::size_t k = 0; k < n; ++k) {
    threads.emplace_back([&, k] {
      Lane& lane = *rig.lanes[k];
      LaneSamples& mine = per_lane[k];
      SpanLog* log = logs != nullptr ? &(*logs)[k] : nullptr;
      while (!stop.load(std::memory_order_relaxed)) {
        try {
          const OpResult r = lane.op(log);
          const auto slice = static_cast<std::size_t>(seconds_since(t0));
          while (mine.slice_start.size() <= slice) {
            mine.slice_start.push_back(mine.latency_us.size());
          }
          mine.latency_us.push_back(static_cast<float>(r.latency_ns / 1e3));
          if (r.open_ns != 0) {
            mine.open_us.push_back(static_cast<float>(r.open_ns / 1e3));
          }
          mine.failed += !r.ok;
          ++mine.ops;
        } catch (const std::exception&) {
          // The session is gone; count the op and retire the lane.
          ++mine.failed;
          ++mine.ops;
          completed.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        if (completed.fetch_add(1, std::memory_order_relaxed) + 1 == kRssAtOps) {
          rss_at_ops = peak_rss_mb();
        }
      }
    });
  }
  std::vector<Stamped> opener_opens;
  std::uint64_t opener_attempted = 0, opener_failed = 0;
  std::thread opener;
  if (rig.opener != nullptr) {
    opener = std::thread([&] {
      SpanLog* log = logs != nullptr ? &(*logs)[kOpenerConn] : nullptr;
      while (!stop.load(std::memory_order_relaxed)) {
        const double at = seconds_since(t0);
        double open_s = 0.0;
        ++opener_attempted;
        try {
          const std::uint64_t ns = rig.opener->open_close(rig.port, log);
          open_s = static_cast<double>(ns) / 1e9;
          opener_opens.push_back({at, open_s * 1e6});
        } catch (const std::exception&) {
          ++opener_failed;
        }
        const auto until =
            SteadyClock::now() +
            std::chrono::duration_cast<SteadyClock::duration>(
                std::chrono::duration<double>(std::clamp(
                    kOpenerIdleFactor * open_s, seconds / kOpenerMaxOpens,
                    seconds / kOpenerMinOpens)));
        while (!stop.load(std::memory_order_relaxed) &&
               SteadyClock::now() < until) {
          std::this_thread::sleep_until(
              std::min(until, SteadyClock::now() + std::chrono::milliseconds(20)));
        }
      }
    });
  }
  // One-second slices: each yields a throughput and a CPU-per-op sample,
  // and the run reports their medians, so a stall in one slice does not
  // move the result.
  Phase phase;
  Usage prev_u = u0;
  std::uint64_t prev_ops = 0;
  auto prev_t = t0;
  for (std::size_t slice = 1;; ++slice) {
    std::this_thread::sleep_until(t0 + std::chrono::seconds(slice));
    const auto t = SteadyClock::now();
    const Usage u = usage();
    const std::uint64_t ops = completed.load(std::memory_order_relaxed);
    const double slice_ops = static_cast<double>(ops - prev_ops);
    phase.slice_ops_per_s.push_back(
        slice_ops / std::chrono::duration<double>(t - prev_t).count());
    if (slice_ops > 0) {
      phase.slice_cpu_us_per_op.push_back((u.cpu_us - prev_u.cpu_us) / slice_ops);
    }
    phase.slice_steal_s.push_back(u.steal_s - prev_u.steal_s);
    phase.max_threads = std::max(phase.max_threads, thread_count());
    prev_u = u;
    prev_ops = ops;
    prev_t = t;
    const double elapsed = static_cast<double>(slice);
    if (elapsed >= seconds &&
        (ops >= min_ops || elapsed >= std::max(3 * seconds, 30.0))) {
      break;
    }
  }
  stop = true;
  for (auto& t : threads) t.join();
  if (opener.joinable()) opener.join();
  phase.seconds = seconds_since(t0);
  phase.peak_rss_mb = rss_at_ops > 0.0 ? rss_at_ops : peak_rss_mb();
  const Usage u1 = usage();
  for (const LaneSamples& p : per_lane) {
    const auto lat = stamp(p.latency_us, p.slice_start);
    const auto opens = stamp(p.open_us, p.slice_start);
    phase.latency_us.insert(phase.latency_us.end(), lat.begin(), lat.end());
    phase.open_us.insert(phase.open_us.end(), opens.begin(), opens.end());
    phase.ops += p.ops;
    phase.failed += p.failed;
  }
  phase.open_us.insert(phase.open_us.end(), opener_opens.begin(),
                       opener_opens.end());
  phase.opener_attempted = opener_attempted;
  phase.opener_failed = opener_failed;
  if (phase.ops > 0) {
    phase.csw_per_op = (u1.nvcsw - u0.nvcsw) / static_cast<double>(phase.ops);
  }
  return phase;
}

std::vector<double> values(const std::vector<Stamped>& samples) {
  std::vector<double> v;
  v.reserve(samples.size());
  for (const Stamped& s : samples) v.push_back(s.value);
  return v;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace delivery_bench
