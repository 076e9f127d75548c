// Unit tests for the discrete-event engine, RNG and cluster specs.
#include <gtest/gtest.h>

#include <vector>

#include "sim/cluster_spec.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace tlb::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(3.0, [&] { order.push_back(3); });
  q.push(1.0, [&] { order.push_back(1); });
  q.push(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(1.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  int fired = 0;
  const EventId a = q.push(1.0, [&] { ++fired; });
  q.push(2.0, [&] { ++fired; });
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelTwiceIsHarmless) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  q.cancel(a);
  q.cancel(a);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelInvalidIsHarmless) {
  EventQueue q;
  q.cancel(kInvalidEvent);
  q.cancel(99999);
  EXPECT_TRUE(q.empty());
}

// Cancelling an id that already fired must not touch the live count.
TEST(EventQueue, CancelAfterFireIsHarmless) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  q.push(2.0, [] {});
  EXPECT_DOUBLE_EQ(q.pop().first, 1.0);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.empty());
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST(Engine, CancelOfFiredEventStillRunsTheRest) {
  Engine e;
  EventId a = kInvalidEvent;
  bool b_fired = false;
  a = e.at(1.0, [] {});
  e.at(2.0, [&] { b_fired = true; });
  e.at(1.5, [&] { e.cancel(a); });
  e.run();
  EXPECT_TRUE(b_fired);
  EXPECT_EQ(e.events_fired(), 3u);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  q.push(5.0, [] {});
  q.cancel(a);
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
}

TEST(Engine, NowAdvancesToEventTime) {
  Engine e;
  double seen = -1.0;
  e.at(2.5, [&] { seen = e.now(); });
  e.run();
  EXPECT_DOUBLE_EQ(seen, 2.5);
  EXPECT_DOUBLE_EQ(e.now(), 2.5);
}

TEST(Engine, AfterSchedulesRelative) {
  Engine e;
  std::vector<double> times;
  e.at(1.0, [&] {
    times.push_back(e.now());
    e.after(0.5, [&] { times.push_back(e.now()); });
  });
  e.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[1], 1.5);
}

TEST(Engine, StopHaltsLoop) {
  Engine e;
  int fired = 0;
  e.at(1.0, [&] {
    ++fired;
    e.stop();
  });
  e.at(2.0, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.pending(), 1u);
}

TEST(Engine, RunUntilRespectsHorizon) {
  Engine e;
  int fired = 0;
  e.at(1.0, [&] { ++fired; });
  e.at(3.0, [&] { ++fired; });
  e.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
  e.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, EventsFiredCounter) {
  Engine e;
  for (int i = 0; i < 7; ++i) e.at(i, [] {});
  e.run();
  EXPECT_EQ(e.events_fired(), 7u);
}

TEST(Engine, SelfReschedulingEvent) {
  Engine e;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) e.after(1.0, tick);
  };
  e.after(1.0, tick);
  e.run();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformStaysInRange) {
  Rng r(42);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r(42);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformMeanIsCentred) {
  Rng r(7);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.uniform(0.0, 1.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ForkStreamsAreIndependentAndDeterministic) {
  Rng parent(99);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  Rng c1b = Rng(99).fork(1);
  EXPECT_EQ(c1.next_u64(), c1b.next_u64());
  EXPECT_NE(c1.next_u64(), c2.next_u64());
}

TEST(Rng, ExponentialMean) {
  Rng r(3);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(ClusterSpec, HomogeneousTotals) {
  const auto spec = ClusterSpec::homogeneous(4, 48);
  EXPECT_EQ(spec.node_count(), 4);
  EXPECT_EQ(spec.total_cores(), 192);
  EXPECT_DOUBLE_EQ(spec.total_capacity(), 192.0);
}

TEST(ClusterSpec, WithSpeedsAppliesEachOverride) {
  const auto spec =
      ClusterSpec::with_speeds(4, 16, {{1, 0.5}, {3, 2.0}});
  EXPECT_DOUBLE_EQ(spec.nodes[0].speed, 1.0);
  EXPECT_DOUBLE_EQ(spec.nodes[1].speed, 0.5);
  EXPECT_DOUBLE_EQ(spec.nodes[2].speed, 1.0);
  EXPECT_DOUBLE_EQ(spec.nodes[3].speed, 2.0);
  EXPECT_DOUBLE_EQ(spec.total_capacity(), 16.0 * (1.0 + 0.5 + 1.0 + 2.0));
}

TEST(ClusterSpec, SlowNodeCapacity) {
  const auto spec = ClusterSpec::with_slow_node(4, 16, 0, 0.6);
  EXPECT_DOUBLE_EQ(spec.nodes[0].speed, 0.6);
  EXPECT_DOUBLE_EQ(spec.nodes[1].speed, 1.0);
  EXPECT_DOUBLE_EQ(spec.total_capacity(), 16 * 0.6 + 3 * 16.0);
}

TEST(LinkSpec, TransferTimeModel) {
  LinkSpec link;
  link.latency = 1e-6;
  link.bandwidth = 1e9;
  EXPECT_DOUBLE_EQ(link.transfer_time(0), 1e-6);
  EXPECT_DOUBLE_EQ(link.transfer_time(1000000), 1e-6 + 1e-3);
}

TEST(TimeHelpers, Conversions) {
  EXPECT_DOUBLE_EQ(seconds(2.0), 2.0);
  EXPECT_DOUBLE_EQ(milliseconds(50.0), 0.05);
  EXPECT_DOUBLE_EQ(microseconds(2.0), 2e-6);
}

}  // namespace
}  // namespace tlb::sim
