// Unit tests for the trace recorder, step series and imbalance metrics.
#include <algorithm>
#include <cstddef>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/synthetic.hpp"
#include "core/runtime.hpp"
#include "metrics/imbalance.hpp"
#include "trace/recorder.hpp"
#include "trace/step_series.hpp"

namespace tlb {
namespace {

/// The step series as the recorder stored it before series were canonical,
/// kept as the oracle of the derived node totals: a same-instant overwrite
/// keeps its point even when it restores the value before it. Fed every
/// busy_delta of a node, it is the old running-sum node series.
class RunningSumSeries {
 public:
  void add(double t, double delta) {
    set(t, points_.empty() ? delta : points_.back().second + delta);
  }
  void set(double t, double value) {
    if (!points_.empty()) {
      if (points_.back().first == t) {
        points_.back().second = value;
        return;
      }
      if (points_.back().second == value) return;
    }
    points_.emplace_back(t, value);
  }
  [[nodiscard]] double value_at(double t) const {
    double v = 0.0;
    for (const auto& [pt, pv] : points_) {
      if (pt > t) break;
      v = pv;
    }
    return v;
  }
  [[nodiscard]] double max_value() const {
    double m = 0.0;
    for (const auto& p : points_) m = std::max(m, p.second);
    return m;
  }
  [[nodiscard]] bool empty() const { return points_.empty(); }

 private:
  std::vector<std::pair<double, double>> points_;
};

/// Canonical form: times strictly increase and no point repeats the value
/// of the point before it.
::testing::AssertionResult canonical(const trace::StepSeries& s) {
  const auto& p = s.points();
  for (std::size_t i = 1; i < p.size(); ++i) {
    if (!(p[i].first > p[i - 1].first)) {
      return ::testing::AssertionFailure()
             << "point " << i << " at t=" << p[i].first
             << " does not follow t=" << p[i - 1].first;
    }
    if (p[i].second == p[i - 1].second) {
      return ::testing::AssertionFailure()
             << "point " << i << " at t=" << p[i].first << " repeats value "
             << p[i].second;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Every change time of `times` plus a point before the first, between
/// each pair and after the last.
std::vector<double> probe_times(const std::set<double>& times) {
  std::vector<double> out;
  if (times.empty()) return out;
  out.push_back(*times.begin() - 1.0);
  double prev = *times.begin();
  for (double t : times) {
    if (t != prev) out.push_back(0.5 * (prev + t));
    out.push_back(t);
    prev = t;
  }
  out.push_back(prev + 1.0);
  return out;
}

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

TEST(StepSeries, SameInstantRestoreRemovesThePoint) {
  // A task ends and its successor starts on the same core at t = 1: the
  // -1 stores a point and the +1 takes it back.
  trace::StepSeries s;
  s.add(0.0, 1.0);
  s.add(1.0, -1.0);
  s.add(1.0, 1.0);
  EXPECT_EQ(s.change_count(), 1u);
  EXPECT_DOUBLE_EQ(s.value_at(1.0), 1.0);
  EXPECT_TRUE(canonical(s));
  s.add(1.0, 1.0);  // the instant can still change the value
  EXPECT_EQ(s.change_count(), 2u);
  EXPECT_DOUBLE_EQ(s.value_at(1.0), 2.0);
}

TEST(StepSeries, FirstPointStaysWhenItRestoresZero) {
  trace::StepSeries s;
  s.add(0.5, 1.0);
  s.add(0.5, -1.0);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.change_count(), 1u);
  EXPECT_DOUBLE_EQ(s.value_at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.max_value(), 0.0);
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

TEST(Recorder, SeriesOffSharesOneEmptySeries) {
  trace::Recorder rec(2, 2, /*series=*/false);
  rec.busy_delta(0.0, 0, 0, +1);
  rec.set_owned(0.0, 1, 1, 4);
  EXPECT_EQ(&rec.busy(0, 0), &rec.owned(1, 1));
  EXPECT_TRUE(rec.busy(0, 0).empty());
  EXPECT_EQ(rec.busy(0, 0).capacity(), 0u);
  EXPECT_TRUE(rec.node_busy(0).empty());
}

// Seeded streams of busy_delta / set_owned calls with many repeated
// timestamps (same-instant end-and-start pairs included) against the
// running-sum oracle: the derived node totals read the same value at every
// change time and between change times, with the same maximum, and every
// stored or derived series is canonical.
TEST(Recorder, DerivedNodeBusyMatchesRunningSumOracle) {
  constexpr int kNodes = 3;
  constexpr int kAppranks = 4;
  for (unsigned seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 gen(seed);
    auto pick = [&gen](int n) {
      return static_cast<int>(gen() % static_cast<unsigned>(n));
    };
    trace::Recorder rec(kNodes, kAppranks);
    std::vector<RunningSumSeries> node_oracle(kNodes);
    std::vector<RunningSumSeries> busy_oracle(kNodes * kAppranks);
    std::vector<RunningSumSeries> owned_oracle(kNodes * kAppranks);
    std::vector<int> busy(kNodes * kAppranks, 0);
    std::vector<std::set<double>> node_times(kNodes);
    double t = 0.0;
    const int ops = 50 + pick(300);
    for (int i = 0; i < ops; ++i) {
      if (pick(2) == 0) t += 0.25 * (1 + pick(4));  // else: same instant
      const int n = pick(kNodes);
      const int a = pick(kAppranks);
      const auto row = static_cast<std::size_t>(n * kAppranks + a);
      node_times[static_cast<std::size_t>(n)].insert(t);
      auto delta = [&](int d) {
        busy[row] += d;
        rec.busy_delta(t, n, a, d);
        busy_oracle[row].add(t, d);
        node_oracle[static_cast<std::size_t>(n)].add(t, d);
      };
      switch (pick(4)) {
        case 0:  // a task ends and a successor starts on its core
          if (busy[row] > 0) {
            delta(-1);
            delta(+1);
            break;
          }
          [[fallthrough]];
        case 1:
          delta(+1);
          break;
        case 2:
          if (busy[row] > 0) delta(-1);
          break;
        default: {
          const int count = pick(5);
          rec.set_owned(t, n, a, count);
          owned_oracle[row].set(t, count);
        }
      }
    }
    for (int n = 0; n < kNodes; ++n) {
      const trace::StepSeries total = rec.node_busy(n);
      const RunningSumSeries& oracle = node_oracle[static_cast<std::size_t>(n)];
      EXPECT_TRUE(canonical(total)) << "node " << n;
      EXPECT_EQ(total.empty(), oracle.empty()) << "node " << n;
      EXPECT_EQ(total.max_value(), oracle.max_value()) << "node " << n;
      const std::set<double>& times = node_times[static_cast<std::size_t>(n)];
      for (double probe : probe_times(times)) {
        ASSERT_EQ(total.value_at(probe), oracle.value_at(probe))
            << "node " << n << " t=" << probe;
        for (int a = 0; a < kAppranks; ++a) {
          const auto row = static_cast<std::size_t>(n * kAppranks + a);
          ASSERT_EQ(rec.busy(n, a).value_at(probe),
                    busy_oracle[row].value_at(probe));
          ASSERT_EQ(rec.owned(n, a).value_at(probe),
                    owned_oracle[row].value_at(probe));
        }
      }
      for (int a = 0; a < kAppranks; ++a) {
        EXPECT_TRUE(canonical(rec.busy(n, a))) << n << "," << a;
        EXPECT_TRUE(canonical(rec.owned(n, a))) << n << "," << a;
      }
    }
  }
}

// On a real run with LeWI and DROM moving cores every iteration, each
// node's derived total equals the sum of its rows at every row change.
TEST(Recorder, NodeBusyIsTheSumOfItsRowsOnARealRun) {
  core::RuntimeConfig cfg;
  cfg.cluster = sim::ClusterSpec::homogeneous(4, 8);
  cfg.appranks_per_node = 1;
  cfg.degree = 3;
  cfg.lewi = true;
  cfg.drom = true;
  cfg.policy = core::PolicyKind::Global;
  apps::SyntheticConfig scfg;
  scfg.appranks = 4;
  scfg.iterations = 6;
  scfg.tasks_per_rank = 200;
  scfg.imbalance = 3.0;
  apps::SyntheticWorkload wl(scfg);
  core::ClusterRuntime rt(cfg);
  rt.run(wl);
  const trace::Recorder& rec = rt.recorder();
  std::size_t checked = 0;
  for (int n = 0; n < rec.nodes(); ++n) {
    const trace::StepSeries total = rec.node_busy(n);
    EXPECT_TRUE(canonical(total)) << "node " << n;
    for (int a = 0; a < rec.appranks(); ++a) {
      EXPECT_TRUE(canonical(rec.busy(n, a))) << n << "," << a;
      EXPECT_TRUE(canonical(rec.owned(n, a))) << n << "," << a;
      for (const auto& [t, v] : rec.busy(n, a).points()) {
        double sum = 0.0;
        for (int b = 0; b < rec.appranks(); ++b) {
          sum += rec.busy(n, b).value_at(t);
        }
        ASSERT_EQ(total.value_at(t), sum) << "node " << n << " t=" << t;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 1000u);
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
  const std::vector<trace::StepSeries> nodes{a, b};
  const auto series = metrics::node_imbalance_series(nodes, 0.0, 2.0, 2);
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
