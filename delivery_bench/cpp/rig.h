// The service under test and the closed loops that drive it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "server/delivery_service.h"
#include "workloads.h"

namespace delivery_bench {

/// A running service with one open lane per connection.
struct Rig {
  std::unique_ptr<jhdl::server::DeliveryService> service;
  std::uint16_t port = 0;
  std::vector<std::unique_ptr<Lane>> lanes;
  /// The side client on kOpenerConn (never opened itself), for workloads
  /// whose op is not a session; null otherwise.
  std::unique_ptr<Lane> opener;
  /// Service construction to the end of the last warm-up op.
  double setup_s = 0.0;
};

/// The shipped DeliveryConfig defaults, with span recording on or off.
jhdl::server::DeliveryConfig service_config(bool tracing);

/// Every scalar DeliveryConfig field, for the result record.
jhdl::Json describe_config(const jhdl::server::DeliveryConfig& config);

/// Constructs and starts the service (standard catalog, a licensed tenant
/// for every lane), then opens every lane and runs its warm-up ops.
Rig set_up(const Workload& workload, bool tracing);

/// Byes every lane, waits for the service to drain, stops it and checks
/// that nothing leaked. Returns the number of violations: a session still
/// active, any malformed frame, rejection or denial, or an artifact still
/// pinned once the store is cleared after stop().
std::size_t tear_down(Rig& rig);

/// What one closed-loop phase measured.
struct Phase {
  std::vector<Stamped> latency_us;  ///< every completed op
  std::vector<Stamped> open_us;     ///< session opens (ops' or opener's)
  std::uint64_t ops = 0;           ///< completed ops (ok or wrong)
  std::uint64_t failed = 0;        ///< wrong outputs and thrown ops
  std::uint64_t opener_attempted = 0;  ///< the opener's opens
  std::uint64_t opener_failed = 0;
  double seconds = 0.0;
  std::vector<double> slice_ops_per_s;
  std::vector<double> slice_cpu_us_per_op;
  std::vector<double> slice_steal_s;  ///< the box's CPU steal per slice
  /// Peak RSS of the process, in MiB, when op number `rss_at_ops`
  /// completed, or when the loops stopped if fewer ops ran.
  double peak_rss_mb = 0.0;
  double csw_per_op = 0.0;  ///< voluntary context switches per op
  double max_threads = 0.0;  ///< peak process thread count
};

/// Ops after which run_phase reads the peak RSS. A fixed count rather than
/// the end of the phase, so that on session_churn, whose RSS grows with
/// every session, the figure follows the memory a session costs rather
/// than how many sessions the box's speed let the run open.
inline constexpr std::uint64_t kRssAtOps = 1000;

/// Runs every lane's closed loop for `seconds`, extended (up to three
/// times as long, or 30 s) until at least `min_ops` ops completed. `logs`, when
/// given, holds one SpanLog per connection below kLanes.
///
/// Alongside, the rig's opener (if any) opens and closes one session at a
/// time, paced so that opens take about a twentieth of its time or less
/// and number between about 40 and 400 a phase. Spread over the whole
/// phase, the opens see the same conditions on the box as the ops do, and
/// they add little load to the ops they run beside.
Phase run_phase(Rig& rig, double seconds, std::uint64_t min_ops,
                std::vector<SpanLog>* logs);

/// The values of stamped samples.
std::vector<double> values(const std::vector<Stamped>& samples);

/// Peak resident set of the process, in MiB.
double peak_rss_mb();

}  // namespace delivery_bench
