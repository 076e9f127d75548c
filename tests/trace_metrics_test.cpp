// Unit tests for the trace recorder, step series and imbalance metrics.
#include <gtest/gtest.h>

#include "metrics/imbalance.hpp"
#include "trace/recorder.hpp"
#include "trace/step_series.hpp"

namespace tlb {
namespace {

TEST(StepSeries, ValueAtFollowsSteps) {
  trace::StepSeries s;
  s.set(1.0, 2.0);
  s.set(3.0, 5.0);
  EXPECT_DOUBLE_EQ(s.value_at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.value_at(1.0), 2.0);
  EXPECT_DOUBLE_EQ(s.value_at(2.9), 2.0);
  EXPECT_DOUBLE_EQ(s.value_at(3.0), 5.0);
  EXPECT_DOUBLE_EQ(s.value_at(100.0), 5.0);
}

TEST(StepSeries, AddAccumulatesDeltas) {
  trace::StepSeries s;
  s.add(0.0, 1.0);
  s.add(1.0, 1.0);
  s.add(2.0, -2.0);
  EXPECT_DOUBLE_EQ(s.value_at(0.5), 1.0);
  EXPECT_DOUBLE_EQ(s.value_at(1.5), 2.0);
  EXPECT_DOUBLE_EQ(s.value_at(2.5), 0.0);
}

TEST(StepSeries, ExactTimeWeightedAverage) {
  trace::StepSeries s;
  s.set(0.0, 1.0);
  s.set(1.0, 3.0);
  // [0, 2): 1 for 1s, 3 for 1s -> 2.
  EXPECT_DOUBLE_EQ(s.average(0.0, 2.0), 2.0);
  // [0.5, 1.5): 1 for 0.5s, 3 for 0.5s -> 2.
  EXPECT_DOUBLE_EQ(s.average(0.5, 1.5), 2.0);
}

TEST(StepSeries, SameTimestampOverwrites) {
  trace::StepSeries s;
  s.set(1.0, 2.0);
  s.set(1.0, 7.0);
  EXPECT_DOUBLE_EQ(s.value_at(1.0), 7.0);
  EXPECT_EQ(s.change_count(), 1u);
}

TEST(StepSeries, RedundantSetIsCoalesced) {
  trace::StepSeries s;
  s.set(1.0, 2.0);
  s.set(2.0, 2.0);
  EXPECT_EQ(s.change_count(), 1u);
}

TEST(StepSeries, SampleBinsAverage) {
  trace::StepSeries s;
  s.set(0.0, 4.0);
  s.set(2.0, 0.0);
  const auto bins = s.sample(0.0, 4.0, 4);
  ASSERT_EQ(bins.size(), 4u);
  EXPECT_DOUBLE_EQ(bins[0], 4.0);
  EXPECT_DOUBLE_EQ(bins[1], 4.0);
  EXPECT_DOUBLE_EQ(bins[2], 0.0);
  EXPECT_DOUBLE_EQ(bins[3], 0.0);
}

TEST(StepSeries, MaxValue) {
  trace::StepSeries s;
  s.add(0.0, 3.0);
  s.add(1.0, 4.0);
  s.add(2.0, -6.0);
  EXPECT_DOUBLE_EQ(s.max_value(), 7.0);
}

TEST(Recorder, BusyAggregatesPerNode) {
  trace::Recorder rec(2, 2);
  rec.busy_delta(0.0, 0, 0, +1);
  rec.busy_delta(0.0, 0, 1, +1);
  rec.busy_delta(1.0, 0, 0, -1);
  EXPECT_DOUBLE_EQ(rec.node_busy(0).value_at(0.5), 2.0);
  EXPECT_DOUBLE_EQ(rec.node_busy(0).value_at(1.5), 1.0);
  EXPECT_DOUBLE_EQ(rec.busy(0, 0).value_at(0.5), 1.0);
  EXPECT_DOUBLE_EQ(rec.node_busy(1).value_at(0.5), 0.0);
}

TEST(Recorder, OffloadStatistics) {
  trace::Recorder rec(2, 1);
  rec.task_executed(/*node=*/0, /*home=*/0, 2.0);
  rec.task_executed(/*node=*/1, /*home=*/0, 3.0);
  EXPECT_EQ(rec.tasks_total(), 2u);
  EXPECT_EQ(rec.tasks_offloaded(), 1u);
  EXPECT_DOUBLE_EQ(rec.offload_fraction(), 0.6);
}

TEST(Recorder, AsciiSparklineShape) {
  const auto line = trace::ascii_sparkline({0.0, 0.5, 1.0}, 1.0);
  ASSERT_EQ(line.size(), 3u);
  EXPECT_EQ(line.front(), ' ');
  EXPECT_EQ(line.back(), '@');
}

TEST(Imbalance, PerfectBalanceIsOne) {
  const double loads[] = {2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(metrics::imbalance(loads), 1.0);
}

TEST(Imbalance, EquationTwo) {
  const double loads[] = {4.0, 1.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(metrics::imbalance(loads), 4.0 / 2.0);
}

TEST(Imbalance, AllZeroLoadsAreBalanced) {
  const double loads[] = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(metrics::imbalance(loads), 1.0);
}

TEST(Imbalance, MaxEqualsApprankCountWhenOneDoesEverything) {
  const double loads[] = {6.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(metrics::imbalance(loads), 3.0);
}

TEST(Imbalance, NodeSeriesDetectsSkew) {
  trace::StepSeries a;
  trace::StepSeries b;
  a.set(0.0, 4.0);
  b.set(0.0, 0.0);
  b.set(1.0, 4.0);
  const auto series = metrics::node_imbalance_series({&a, &b}, 0.0, 2.0, 2);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0], 2.0);  // 4 vs 0
  EXPECT_DOUBLE_EQ(series[1], 1.0);  // 4 vs 4
}

TEST(Imbalance, ConvergenceTimeFindsSettlePoint) {
  const std::vector<double> series = {3.0, 2.0, 1.1, 1.05, 1.02, 1.01};
  const double t = metrics::convergence_time(series, 0.0, 6.0, 1.2, 2);
  EXPECT_DOUBLE_EQ(t, 2.0);
}

TEST(Imbalance, ConvergenceTimeNeverWhenAlwaysHigh) {
  const std::vector<double> series = {3.0, 2.5, 2.0};
  EXPECT_LT(metrics::convergence_time(series, 0.0, 3.0, 1.2, 1), 0.0);
}

TEST(Imbalance, ConvergenceRequiresHold) {
  const std::vector<double> series = {1.0, 2.0, 1.0};
  // Only the final bin is below threshold: hold=2 not satisfied.
  EXPECT_LT(metrics::convergence_time(series, 0.0, 3.0, 1.2, 2), 0.0);
}

}  // namespace
}  // namespace tlb
