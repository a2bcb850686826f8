// Self-tests of the benchmark's statistics and span arithmetic.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "stats.h"

namespace delivery_bench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRank) {
  // 1..100 shuffled: p50 is rank 50, p90 rank 90.
  std::vector<double> v = one_to(100);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(percentile(v, 0.5), 50.0);
  EXPECT_EQ(percentile(v, 0.9), 90.0);
  // Rank ceil(0.25 * 10) = 3.
  EXPECT_EQ(percentile(one_to(20), 0.25), 5.0);
  EXPECT_EQ(percentile(one_to(20), 0.5, 0), 10.0);
}

TEST(Percentile, RefusesShortTail) {
  // p99 of 1000 samples is rank 990: exactly ten samples beyond it.
  EXPECT_EQ(percentile(one_to(1000), 0.99), 990.0);
  // Of 999 samples, rank 990 leaves nine beyond: refused.
  EXPECT_FALSE(percentile(one_to(999), 0.99).has_value());
  // The median needs twenty samples; nineteen leave nine beyond rank 10.
  EXPECT_TRUE(percentile(one_to(20), 0.5).has_value());
  EXPECT_FALSE(percentile(one_to(19), 0.5).has_value());
  EXPECT_FALSE(percentile({}, 0.5, 0).has_value());
  // With the tail rule off, the top rank is the maximum.
  EXPECT_EQ(percentile(one_to(7), 1.0, 0), 7.0);
}

TEST(Percentile, TailGivesWayToHighestSupportedRank) {
  auto full = tail_percentile(one_to(1000), 0.99);
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->value, 990.0);
  EXPECT_EQ(full->q, 0.99);
  // 50 samples: rank 40 is the highest with ten beyond it.
  auto thin = tail_percentile(one_to(50), 0.99);
  ASSERT_TRUE(thin.has_value());
  EXPECT_EQ(thin->value, 40.0);
  EXPECT_DOUBLE_EQ(thin->q, 0.8);
  EXPECT_FALSE(tail_percentile(one_to(10), 0.99).has_value());
}

std::vector<Stamped> stamped(std::size_t n, double t0, double dt,
                             double value) {
  std::vector<Stamped> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back({t0 + dt * i, value});
  return v;
}

TEST(WindowedPercentile, MedianOfWindowsIgnoresABurst) {
  // Five one-second slices of 100 samples; slice 2 is a burst of slow ops.
  std::vector<Stamped> all;
  for (int s = 0; s < 5; ++s) {
    auto slice = stamped(100, s, 0.01, s == 2 ? 1000.0 : 10.0 + s);
    all.insert(all.end(), slice.begin(), slice.end());
  }
  // Each slice supports its own p90; the windows read 10, 11, 1000, 13,
  // 14 and their median is 13, where the pooled p90 is the burst.
  EXPECT_EQ(windowed_percentile(all, 0.5), 13.0);
  EXPECT_EQ(windowed_percentile(all, 0.9), 13.0);
  std::vector<double> pooled;
  for (const Stamped& x : all) pooled.push_back(x.value);
  EXPECT_EQ(percentile(pooled, 0.9), 1000.0);
}

TEST(WindowedPercentile, GrowsWindowsUntilTheTailIsSupported) {
  // 500 samples a slice: p99 needs 1000, so windows span two slices, and
  // the fifth slice's leftovers join the second window.
  std::vector<Stamped> all;
  for (int s = 0; s < 5; ++s) {
    auto slice = stamped(500, s, 0.001, 1.0 + s);
    all.insert(all.end(), slice.begin(), slice.end());
  }
  // Window 1: slices 0-1 -> p99 = 2. Window 2: slices 2-4 -> p99 = 5.
  EXPECT_EQ(windowed_percentile(all, 0.99), 3.5);
  EXPECT_FALSE(windowed_percentile(stamped(999, 0, 0.001, 1.0), 0.99));
  EXPECT_EQ(windowed_percentile(stamped(1000, 0, 0.001, 7.0), 0.99), 7.0);
}

TEST(MedianAndQuartiles, MatchPythonStatistics) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  Quartiles q = quartiles(one_to(10));
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  EXPECT_DOUBLE_EQ(q.iqr_frac(), 5.5 / 5.5);
  // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
  q = quartiles({50, 10, 40, 20, 30});
  EXPECT_DOUBLE_EQ(q.q1, 15.0);
  EXPECT_DOUBLE_EQ(q.q2, 30.0);
  EXPECT_DOUBLE_EQ(q.q3, 45.0);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  q = quartiles({2, 1});
  EXPECT_DOUBLE_EQ(q.q1, 0.75);
  EXPECT_DOUBLE_EQ(q.q3, 2.25);
  EXPECT_THROW(quartiles({1}), std::invalid_argument);
}

Span bench(const char* name, std::uint64_t trace, double s, double e) {
  return Span{name, trace, s, e, 1, false};
}
Span svc(const char* name, std::uint64_t trace, double s, double e) {
  return Span{name, trace, s, e, 2, true};
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Parent [0, 100]; children [10, 40] and [30, 60] overlap on [30, 40];
  // [90, 100] ends with the parent.
  std::vector<Span> spans = {bench("parent", 7, 0, 100),
                             bench("a", 7, 10, 40), bench("b", 7, 30, 60),
                             bench("c", 7, 90, 100)};
  std::vector<int> parents = build_parents(spans);
  EXPECT_EQ(parents[0], -1);
  EXPECT_EQ(parents[1], 0);
  EXPECT_EQ(parents[2], 0);
  EXPECT_EQ(parents[3], 0);
  std::vector<double> self = self_times_us(spans, parents);
  // Covered: [10, 60] and [90, 100] = 60.
  EXPECT_DOUBLE_EQ(self[0], 40.0);
  EXPECT_DOUBLE_EQ(self[1], 30.0);
}

TEST(SelfTime, ChildClippedToParent) {
  std::vector<Span> spans = {bench("p", 1, 0, 10), bench("c", 1, 2, 5)};
  std::vector<int> parents = {-1, 0};
  // Hand the child an interval reaching past its parent.
  spans[1].end_us = 50;
  EXPECT_DOUBLE_EQ(self_times_us(spans, parents)[0], 2.0);
}

TEST(Parents, InnermostWithinTraceOnly) {
  std::vector<Span> spans = {
      bench("client.session", 5, 0, 100), bench("client.open", 5, 0.5, 40),
      svc("session.handshake", 5, 0, 39), svc("license.check", 5, 2, 3),
      bench("other", 6, 1, 2),  // another trace: never nested under 5
      svc("untraced", 0, 1, 2)};
  std::vector<int> parents = build_parents(spans);
  EXPECT_EQ(parents[0], -1);
  EXPECT_EQ(parents[1], 0);
  EXPECT_EQ(parents[2], 1);
  // The truncated handshake sorts before client.open, which holds it;
  // the license check sits in both and takes the shorter, the handshake.
  EXPECT_EQ(parents[3], 2);
  EXPECT_EQ(parents[4], -1);
  EXPECT_EQ(parents[5], -1);
}

TEST(Parents, ServiceSpanMayStartInsideTruncationSlack) {
  // The service truncates to whole microseconds: its span reads as
  // starting at 10 although the client op started at 10.4.
  std::vector<Span> spans = {bench("client.eval", 9, 10.4, 30.2),
                             svc("req.eval", 9, 10, 25)};
  EXPECT_EQ(build_parents(spans)[1], 0);
  // But a service span can never hold a benchmark span by slack.
  std::vector<Span> reversed = {svc("req.eval", 9, 10, 25),
                                bench("client.eval", 9, 10.4, 25.5)};
  EXPECT_EQ(build_parents(reversed)[1], -1);
}

TEST(Join, PathIsRoundTripMinusExecution) {
  std::vector<Span> spans = {
      bench("client.eval", 1, 0, 60),    bench("client.eval", 1, 100, 150),
      bench("client.eval", 2, 10, 70),   svc("req.eval", 1, 20, 23),
      svc("req.eval", 2, 30, 34),        svc("req.eval", 1, 120, 130),
      svc("session.handshake", 1, 1, 5),
      // An untraced op's request: no client span contains it.
      svc("req.eval", 1, 200, 210)};
  std::vector<int> parents = build_parents(spans);
  std::vector<JoinedOp> joined =
      join_on_trace(spans, parents, "client.eval", "req.");
  ASSERT_EQ(joined.size(), 3u);
  EXPECT_EQ(joined[0].client, 0u);
  EXPECT_EQ(joined[0].server, 3u);
  EXPECT_DOUBLE_EQ(joined[0].path_us, 57.0);
  EXPECT_EQ(joined[1].client, 2u);
  EXPECT_DOUBLE_EQ(joined[1].path_us, 56.0);
  EXPECT_EQ(joined[2].client, 1u);
  EXPECT_DOUBLE_EQ(joined[2].path_us, 40.0);
}

TEST(Join, ClientJoinedAtMostOnce) {
  std::vector<Span> spans = {bench("client.eval", 3, 0, 100),
                             svc("req.eval", 3, 10, 20),
                             svc("req.eval", 3, 30, 40)};
  std::vector<int> parents = build_parents(spans);
  EXPECT_EQ(join_on_trace(spans, parents, "client.eval", "req.").size(), 1u);
}

}  // namespace
}  // namespace delivery_bench
