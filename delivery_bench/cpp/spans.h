// The benchmark's own spans: one per layer call it makes, kept in memory
// per thread and merged with the service's spans after the run.
//
// Timestamps live on obs::Tracer's timeline (microseconds since its
// epoch) so a client span and the service spans it caused can be nested
// by interval. The benchmark keeps sub-microsecond precision, which the
// service's whole-microsecond spans lack; stats.h absorbs the difference.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "stats.h"

namespace delivery_bench {

using SteadyClock = std::chrono::steady_clock;

/// Maps steady_clock instants onto obs::Tracer's microsecond timeline.
class TraceClock {
 public:
  /// Pins the tracer epoch (waits for one tick of Tracer::now_us so the
  /// offset is exact to well under a microsecond). Call once, early.
  static void init();
  static double to_us(SteadyClock::time_point t);
  static double now_us() { return to_us(SteadyClock::now()); }
};

/// Spans recorded by one thread. Not thread-safe: each thread owns one.
class SpanLog {
 public:
  explicit SpanLog(std::uint32_t tid) : tid_(tid) {}

  void add(const char* name, std::uint64_t trace, SteadyClock::time_point t0,
           SteadyClock::time_point t1) {
    spans_.push_back(Span{name, trace, TraceClock::to_us(t0),
                          TraceClock::to_us(t1), tid_, false});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint32_t tid_;
  std::vector<Span> spans_;
};

/// Record [t0, now) into `log` when it is non-null; returns the elapsed
/// nanoseconds either way.
inline std::uint64_t finish_span(SpanLog* log, const char* name,
                                 std::uint64_t trace,
                                 SteadyClock::time_point t0) {
  const auto t1 = SteadyClock::now();
  if (log != nullptr) log->add(name, trace, t0, t1);
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

}  // namespace delivery_bench
