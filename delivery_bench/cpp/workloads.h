// The four closed-loop workloads. Each generates all of its inputs from
// the seed at construction (before any timing starts), drives a
// DeliveryService through one SimClient session per connection, and
// checks every reply against an independent reference:
//   cosim_eval     carry-adder Eval          a + b mod 2^16
//   cycle_stream   systolic-array CycleBatch golden::SystolicModel
//   pattern_sweep  cordic-rotator PatternBatch golden::CordicModel
//   session_churn  kcm-multiplier sessions   constant * multiplicand
// The same inputs also feed the traced run's direct layer probes (codec,
// simulator, artifact store), so a layer number and the end-to-end number
// it should move come from one input stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/blackbox.h"
#include "net/protocol.h"
#include "spans.h"

namespace delivery_bench {

namespace core = jhdl::core;
namespace net = jhdl::net;

/// Client connections that run timed ops (one client thread each). One
/// keeps the load the benchmark puts on a shared box at about one busy
/// thread at a time (the client, the service's loop or a worker, in turn)
/// plus the kernel's island threads. With two, cycle_stream ran no faster
/// (its island threads already fill the box) and its throughput spread
/// between runs grew sixfold under competing load.
inline constexpr std::size_t kConnections = 1;
/// Connection of the side client that opens and closes extra sessions,
/// paced, during the timed phase of a workload whose op is not a session.
inline constexpr std::size_t kOpenerConn = kConnections;
/// Connections a workload draws inputs and a licensed tenant for.
inline constexpr std::size_t kLanes = kConnections + 1;

/// One op as the client saw it.
struct OpResult {
  bool ok = true;
  std::uint64_t latency_ns = 0;
  /// SimClient construction time when the op opened a session, else 0.
  std::uint64_t open_ns = 0;
};

/// One connection's closed loop: a client thread that sends its next op
/// only after the previous reply, with its own session and reference
/// state. Ops and set-up throw on transport or protocol failure.
class Lane {
 public:
  virtual ~Lane() = default;
  /// Set-up: open this connection's first session, run the warm-up ops.
  virtual void open(std::uint16_t port) = 0;
  /// One timed op. `spans` (traced runs only) receives a span around
  /// each client call.
  virtual OpResult op(SpanLog* spans) = 0;
  /// Opens one extra session on this lane's module and closes it again;
  /// returns the open time. The opener lane measures session_open this
  /// way on workloads whose ops do not open sessions.
  virtual std::uint64_t open_close(std::uint16_t port, SpanLog* spans) = 0;
  /// Bye on the open session, if any.
  virtual void close() = 0;
};

/// Runs a workload's inputs on a BlackBoxModel directly (no network), for
/// the traced run's simulator probe.
class DirectRunner {
 public:
  virtual ~DirectRunner() = default;
  /// Runs op `i` of the input pool; returns false on a wrong output.
  virtual bool op(std::size_t i) = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  virtual const char* module() const = 0;
  /// Client span name of one op.
  virtual const char* op_span() const = 0;
  /// True when one op is a whole session (open, evals, Bye).
  virtual bool op_is_session() const { return false; }

  /// Lane for connection `conn` (below kLanes). Trace ids of its sessions are
  /// derived from the seed, so they are reproducible and distinct.
  virtual std::unique_ptr<Lane> make_lane(std::size_t conn) const = 0;

  // --- layer probes (traced run) ---
  /// Generator parameters of the model the simulator probe instantiates.
  virtual std::map<std::string, std::int64_t> model_params() const = 0;
  /// Drives `model` with connection 0's inputs.
  virtual std::unique_ptr<DirectRunner> direct(
      core::BlackBoxModel& model) const = 0;
  /// The wire request of op `i` and its expected reply (the codec probe).
  virtual net::Message request(std::size_t i) const = 0;
  virtual net::Message reply(std::size_t i) const = 0;
  /// Parameters of the first `n` sessions this workload opens, in order
  /// (the artifact-store probe replays them as store keys).
  virtual std::vector<std::map<std::string, std::int64_t>> key_sequence(
      std::size_t n) const = 0;
};

/// Names accepted by make_workload. BENCHMARK.json lists all but
/// pattern_sweep (see README.md for why it is left out).
const std::vector<std::string>& workload_names();

/// Builds workload `name` with every input drawn from `seed`.
/// `max_ops_per_lane` bounds how many ops one lane can run (only
/// session_churn, whose cold constants never repeat, sizes by it).
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        std::size_t max_ops_per_lane);

}  // namespace delivery_bench
