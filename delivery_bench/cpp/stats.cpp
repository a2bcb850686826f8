#include "stats.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace delivery_bench {

std::optional<double> percentile(std::vector<double> samples, double q,
                                 std::size_t min_tail) {
  const std::size_t n = samples.size();
  if (n == 0 || q <= 0.0 || q > 1.0) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  const std::size_t r = std::max<std::size_t>(rank, 1);
  if (n - r < min_tail) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (r - 1), samples.end());
  return samples[r - 1];
}

std::optional<TailValue> tail_percentile(const std::vector<double>& samples,
                                         double q) {
  if (auto v = percentile(samples, q)) return TailValue{*v, q};
  const std::size_t n = samples.size();
  if (n <= kMinTail) return std::nullopt;
  const double q_max = static_cast<double>(n - kMinTail) / static_cast<double>(n);
  if (auto v = percentile(samples, q_max)) return TailValue{*v, q_max};
  return std::nullopt;
}

std::optional<double> windowed_percentile(std::vector<Stamped> samples,
                                          double q, double slice_s) {
  std::sort(samples.begin(), samples.end(),
            [](const Stamped& a, const Stamped& b) { return a.t_s < b.t_s; });
  std::vector<double> window_values;
  std::vector<double> window, last_window;
  std::size_t i = 0;
  while (i < samples.size()) {
    // Take one whole slice into the current window.
    const double slice_end =
        (std::floor(samples[i].t_s / slice_s) + 1.0) * slice_s;
    while (i < samples.size() && samples[i].t_s < slice_end) {
      window.push_back(samples[i++].value);
    }
    if (auto v = percentile(window, q)) {
      window_values.push_back(*v);
      last_window = std::move(window);
      window.clear();
    }
  }
  if (window_values.empty()) return std::nullopt;
  if (!window.empty()) {
    last_window.insert(last_window.end(), window.begin(), window.end());
    window_values.back() = *percentile(last_window, q);
  }
  return median(window_values);
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

Quartiles quartiles(std::vector<double> samples) {
  const std::size_t ld = samples.size();
  if (ld < 2) throw std::invalid_argument("quartiles need two samples");
  std::sort(samples.begin(), samples.end());
  // statistics.quantiles(data, n=4, method="exclusive"): m = len + 1,
  // cut i sits at position i*m/4, interpolated between neighbours.
  const std::size_t m = ld + 1;
  double cut[3];
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, ld - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    cut[i - 1] = (samples[j - 1] * (4.0 - delta) + samples[j] * delta) / 4.0;
  }
  return Quartiles{cut[0], cut[1], cut[2]};
}

bool contains(const Span& outer, const Span& inner) {
  if (outer.trace != inner.trace) return false;
  const double slack =
      (inner.server && !outer.server) ? kContainSlackUs : 0.0;
  return inner.start_us >= outer.start_us - slack &&
         inner.end_us <= outer.end_us;
}

std::vector<int> build_parents(const std::vector<Span>& spans) {
  std::vector<int> parents(spans.size(), -1);
  std::map<std::uint64_t, std::vector<std::size_t>> by_trace;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].trace != 0) by_trace[spans[i].trace].push_back(i);
  }
  for (auto& [trace, idx] : by_trace) {
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      if (spans[a].start_us != spans[b].start_us) {
        return spans[a].start_us < spans[b].start_us;
      }
      return spans[a].dur_us() > spans[b].dur_us();
    });
    // prefix_end[k]: latest end among idx[0..k]. Walking back from a
    // child stops once no earlier span can still reach its end, which
    // keeps the walk short for sequential ops on one session.
    std::vector<double> prefix_end(idx.size());
    for (std::size_t k = 0; k < idx.size(); ++k) {
      prefix_end[k] = std::max(k > 0 ? prefix_end[k - 1] : spans[idx[k]].end_us,
                               spans[idx[k]].end_us);
    }
    std::vector<double> starts(idx.size());
    for (std::size_t k = 0; k < idx.size(); ++k) {
      starts[k] = spans[idx[k]].start_us;
    }
    for (std::size_t k = 0; k < idx.size(); ++k) {
      const Span& child = spans[idx[k]];
      // A benchmark parent may start up to the slack after a service
      // child, so the candidates extend that far past the child's start.
      std::size_t hi = static_cast<std::size_t>(
          std::upper_bound(starts.begin(), starts.end(),
                           child.start_us + kContainSlackUs) -
          starts.begin());
      int best = -1;
      double best_dur = 0.0;
      while (hi > 0) {
        const std::size_t c = hi - 1;
        if (prefix_end[c] < child.end_us) break;
        --hi;
        if (c == k) continue;
        const Span& cand = spans[idx[c]];
        if (!contains(cand, child)) continue;
        // Equal intervals: the earlier-sorted span is the parent, so two
        // identical spans never parent each other.
        if (contains(child, cand) && c > k) continue;
        if (best < 0 || cand.dur_us() < best_dur) {
          best = static_cast<int>(idx[c]);
          best_dur = cand.dur_us();
        }
      }
      parents[idx[k]] = best;
    }
  }
  return parents;
}

std::vector<double> self_times_us(const std::vector<Span>& spans,
                                  const std::vector<int>& parents) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (parents[i] >= 0) {
      kids[static_cast<std::size_t>(parents[i])].emplace_back(
          spans[i].start_us, spans[i].end_us);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double run_lo = 0.0, run_hi = 0.0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_us);
      hi = std::min(hi, s.end_us);
      if (hi <= lo) continue;
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = s.dur_us() - covered;
  }
  return self;
}

std::vector<JoinedOp> join_on_trace(const std::vector<Span>& spans,
                                    const std::vector<int>& parents,
                                    const std::string& client_name,
                                    const std::string& server_prefix) {
  std::vector<JoinedOp> joined;
  std::vector<bool> used(spans.size(), false);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (!s.server || std::string_view(s.name).rfind(server_prefix, 0) != 0) {
      continue;
    }
    const int p = parents[i];
    if (p < 0) continue;
    const auto c = static_cast<std::size_t>(p);
    if (spans[c].server || client_name != spans[c].name || used[c]) continue;
    used[c] = true;
    joined.push_back({c, i, spans[c].dur_us() - s.dur_us()});
  }
  return joined;
}

}  // namespace delivery_bench
