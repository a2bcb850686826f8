#include "spans.h"

#include "obs/trace.h"

namespace delivery_bench {

namespace {
SteadyClock::time_point g_epoch;
}  // namespace

void TraceClock::init() {
  using jhdl::obs::Tracer;
  // Tracer::now_us() truncates to whole microseconds: wait for it to tick
  // so the instant read next to it is within a fraction of a microsecond
  // of a whole-microsecond boundary.
  const std::uint64_t u0 = Tracer::now_us();
  for (;;) {
    const std::uint64_t u = Tracer::now_us();
    const auto t = SteadyClock::now();
    if (u != u0) {
      g_epoch = t - std::chrono::microseconds(u);
      return;
    }
  }
}

double TraceClock::to_us(SteadyClock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - g_epoch).count();
}

}  // namespace delivery_bench
