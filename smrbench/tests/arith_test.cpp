// Tests for the benchmark's own arithmetic: percentiles on small samples,
// span self time with nested and overlapping children, and per-commit
// ratios when nothing committed. Run with `python3 smrbench/run.py
// --self-test`.
#include <gtest/gtest.h>

#include "trace.h"

namespace smrbench {
namespace {

TEST(Percentile, EmptySampleIsZero) { EXPECT_EQ(percentile({}, 50), 0); }

TEST(Percentile, SingleSampleIsEveryPercentile) {
  for (double q : {0.0, 1.0, 50.0, 99.0, 100.0})
    EXPECT_EQ(percentile({7}, q), 7);
}

TEST(Percentile, NearestRankOnSmallSamples) {
  const std::vector<double> four = {4, 1, 3, 2};  // unsorted on purpose
  EXPECT_EQ(percentile(four, 0), 1);
  EXPECT_EQ(percentile(four, 25), 1);
  EXPECT_EQ(percentile(four, 26), 2);
  EXPECT_EQ(percentile(four, 50), 2);
  EXPECT_EQ(percentile(four, 75), 3);
  EXPECT_EQ(percentile(four, 99), 4);
  EXPECT_EQ(percentile(four, 100), 4);
}

TEST(Percentile, P99OfHundredIsTheNinetyNinthValue) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 99), 99);
  EXPECT_EQ(percentile(v, 50), 50);
}

TEST(Mean, EmptyAndSmall) {
  EXPECT_EQ(mean({}), 0);
  EXPECT_EQ(mean({1, 2, 6}), 3);
}

TEST(SelfTime, NoChildrenIsTheWholeSpan) {
  EXPECT_EQ(self_time({10, 50}, {}), 40u);
}

TEST(SelfTime, DisjointChildrenAreSubtracted) {
  EXPECT_EQ(self_time({0, 100}, {{10, 20}, {50, 70}}), 70u);
}

TEST(SelfTime, NestedChildrenCountOnce) {
  // A grandchild interval inside its parent's interval covers nothing new.
  EXPECT_EQ(self_time({0, 100}, {{10, 60}, {20, 30}}), 50u);
}

TEST(SelfTime, OverlappingChildrenCountTheirUnion) {
  EXPECT_EQ(self_time({0, 100}, {{40, 70}, {10, 50}}), 40u);  // union [10, 70)
  EXPECT_EQ(self_time({0, 100}, {{0, 100}, {20, 30}}), 0u);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  EXPECT_EQ(self_time({50, 100}, {{0, 60}, {90, 200}}), 30u);
  EXPECT_EQ(self_time({50, 100}, {{0, 10}, {200, 300}}), 50u);
}

TEST(SelfTime, EmptyParentIsZero) {
  EXPECT_EQ(self_time({5, 5}, {{0, 10}}), 0u);
}

TEST(PerCommit, ZeroCommitsGiveZero) {
  EXPECT_EQ(per_commit(123.0, 0), 0);
  EXPECT_EQ(per_commit(0.0, 0), 0);
  EXPECT_EQ(per_commit(30.0, 4), 7.5);
  EXPECT_EQ(share(5.0, 0.0), 0);
  EXPECT_EQ(share(1.0, 4.0), 0.25);
}

void busy(std::uint64_t ns) {
  const std::uint64_t until = now_ns() + ns;
  while (now_ns() < until) {
  }
}

TEST(Tracer, NestedSpansFoldSelfTimeOnline) {
  reset_totals();
  set_tracing(true);
  {
    Span outer(Layer::Deliver);
    busy(200'000);
    {
      Span inner(Layer::Send);
      busy(300'000);
    }
    busy(100'000);
  }
  set_tracing(false);
  const Totals t = collect_totals();
  const LayerTotals& outer = t[static_cast<std::size_t>(Layer::Deliver)];
  const LayerTotals& inner = t[static_cast<std::size_t>(Layer::Send)];
  EXPECT_EQ(outer.count, 1u);
  EXPECT_EQ(inner.count, 1u);
  EXPECT_EQ(outer.self_ns + inner.total_ns, outer.total_ns);
  EXPECT_EQ(outer.top_level_ns, outer.total_ns);
  EXPECT_EQ(inner.top_level_ns, 0u);
  EXPECT_EQ(inner.self_ns, inner.total_ns);
  EXPECT_GE(outer.self_ns, 300'000u);
}

TEST(Tracer, SpansAreFreeWhileTracingIsOff) {
  reset_totals();
  { Span s(Layer::Timer); }
  EXPECT_EQ(collect_totals()[static_cast<std::size_t>(Layer::Timer)].count, 0u);
}

}  // namespace
}  // namespace smrbench
