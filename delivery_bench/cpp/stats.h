// Statistics and span arithmetic for the delivery benchmark.
//
// Everything here is pure (no clocks, no threads) so the self-tests in
// tests/stats_test.cpp can pin the definitions the metrics rely on:
//   - nearest-rank percentiles that refuse a tail with fewer than
//     kMinTail samples beyond the chosen rank;
//   - median and quartiles, with the quartiles computed exactly as
//     Python's statistics.quantiles(values, n=4) does (its default
//     "exclusive" method), so in-run spreads and the cross-run spread
//     check agree on the definition;
//   - span self time: a span's duration minus the part of its interval
//     its children cover, each instant counted once when children
//     overlap;
//   - the trace-id join of client op spans to server request spans.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace delivery_bench {

/// A percentile is reported only when at least this many samples lie
/// strictly beyond its rank.
inline constexpr std::size_t kMinTail = 10;

/// Nearest-rank percentile of `samples` at fraction `q` in (0, 1]: the
/// value at 1-based rank ceil(q * n) of the sorted samples. Returns
/// nullopt when fewer than `min_tail` samples lie beyond that rank.
std::optional<double> percentile(std::vector<double> samples, double q,
                                 std::size_t min_tail = kMinTail);

/// A percentile that gives way when its tail is too thin.
struct TailValue {
  double value = 0.0;
  double q = 0.0;  ///< the fraction actually reported
};

/// percentile(samples, q) when it has kMinTail samples beyond its rank;
/// otherwise the value at the highest rank that still has, reported with
/// that rank's fraction (rank / n). Nullopt with kMinTail samples or fewer.
std::optional<TailValue> tail_percentile(const std::vector<double>& samples,
                                         double q);

/// A sample stamped with when it was taken, in seconds from the start of
/// its phase.
struct Stamped {
  double t_s = 0.0;
  double value = 0.0;
};

/// The median, over time windows, of each window's percentile(q). Windows
/// are runs of whole `slice_s` slices in time order, each grown until it
/// holds enough samples for percentile(q) to be reported; leftover
/// samples join the last window. A burst of noise then moves only the
/// windows it falls in. Nullopt when even all samples together are too
/// few for percentile(q).
std::optional<double> windowed_percentile(std::vector<Stamped> samples,
                                          double q, double slice_s = 1.0);

/// Median (mean of the middle pair for even counts). Throws on empty.
double median(std::vector<double> samples);

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
  /// (q3 - q1) / q2, the spread the benchmark's bounds are judged on.
  double iqr_frac() const { return q2 != 0.0 ? (q3 - q1) / q2 : 0.0; }
};

/// Quartiles by Python's statistics.quantiles(samples, n=4) ("exclusive"
/// method). Needs at least two samples; throws otherwise.
Quartiles quartiles(std::vector<double> samples);

/// One timed interval on the shared trace timeline (microseconds since
/// the obs::Tracer epoch). `name` has static lifetime.
struct Span {
  const char* name = "";
  std::uint64_t trace = 0;
  double start_us = 0.0;
  double end_us = 0.0;
  std::uint32_t tid = 0;
  /// True for spans the service recorded, false for the benchmark's own.
  bool server = false;

  double dur_us() const { return end_us - start_us; }
};

/// Clock-resolution slack for containment tests: service spans are
/// truncated to whole microseconds while the benchmark's are not.
inline constexpr double kContainSlackUs = 1.0;

/// True when `inner` lies within `outer`. A service span inside a
/// benchmark span may start up to kContainSlackUs early (truncation);
/// every other pairing is compared exactly.
bool contains(const Span& outer, const Span& inner);

/// Parent index of every span (-1 for roots). Spans only nest within
/// their own trace id; trace id 0 spans are never parented. The parent
/// is the shortest other span of the same trace that contains the child.
std::vector<int> build_parents(const std::vector<Span>& spans);

/// Self time of every span: its duration minus the union of the
/// intervals its children cover, clipped to the span itself.
std::vector<double> self_times_us(const std::vector<Span>& spans,
                                  const std::vector<int>& parents);

/// One client op joined to the server request span it caused.
struct JoinedOp {
  std::size_t client = 0;  ///< index of the client op span
  std::size_t server = 0;  ///< index of the server request span
  /// Client round trip minus server execution: the time the request
  /// spent in the net and server layers outside the worker.
  double path_us = 0.0;
};

/// Join each service span whose name starts with `server_prefix` to its
/// parent from build_parents() when that parent is a benchmark span named
/// `client_name`: same trace id, interval contained. A service span with
/// no such parent (its op was not traced) is skipped, and a client span
/// is joined at most once.
std::vector<JoinedOp> join_on_trace(const std::vector<Span>& spans,
                                    const std::vector<int>& parents,
                                    const std::string& client_name,
                                    const std::string& server_prefix);

}  // namespace delivery_bench
