// Unit and integration tests for the contention-aware interconnect
// (tlb::net): topology routing, max-min fair sharing, NIC caps, fault
// composition, flow teardown, and the ClusterRuntime net mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "apps/synthetic.hpp"
#include "core/runtime.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"

namespace tlb::net {
namespace {

// --- topology ---------------------------------------------------------------

TEST(NetTopology, FatTreeSameLeafStaysUnderLeaf) {
  const auto t = NetTopology::fat_tree(8, 4, 2, 100.0, 200.0, 1e-6, 5e-7);
  EXPECT_EQ(t.leaf_count(), 2);
  EXPECT_EQ(t.leaf_of(3), 0);
  EXPECT_EQ(t.leaf_of(4), 1);
  // Nodes 0 and 3 share leaf 0: two-link path, base latency only.
  const auto& route = t.route(0, 3);
  ASSERT_EQ(route.size(), 2u);
  EXPECT_EQ(t.link(route[0]).kind, LinkKind::NicInject);
  EXPECT_EQ(t.link(route[1]).kind, LinkKind::NicEject);
  EXPECT_DOUBLE_EQ(t.path_latency(0, 3), 1e-6);

  // One leaf holds every node: each route is {inject, eject}, with
  // inject[n] = 2n and eject[n] = 2n + 1.
  const auto one = NetTopology::fat_tree(4, 4, 1, 100.0, 100.0, 1e-6, 5e-7);
  EXPECT_EQ(one.route(0, 2), (std::vector<LinkId>{0, 5}));
  EXPECT_EQ(one.link(5).name, "nic2.out");
  EXPECT_TRUE(one.route(1, 1).empty());
  EXPECT_DOUBLE_EQ(one.path_latency(0, 2), 1e-6);
}

TEST(NetTopology, FatTreeCrossLeafUsesHashedSpine) {
  const auto t = NetTopology::fat_tree(8, 4, 2, 100.0, 200.0, 1e-6, 5e-7);
  const auto& route = t.route(0, 5);  // leaf 0 -> leaf 1
  ASSERT_EQ(route.size(), 4u);
  EXPECT_EQ(t.link(route[0]).kind, LinkKind::NicInject);
  EXPECT_EQ(t.link(route[1]).kind, LinkKind::LeafUp);
  EXPECT_EQ(t.link(route[2]).kind, LinkKind::LeafDown);
  EXPECT_EQ(t.link(route[3]).kind, LinkKind::NicEject);
  // Static per-pair spine hash: (0 * 7919 + 5) % 2 = 1; up link for
  // (leaf 0, spine 1) sits at base + 2 * (0 * spines + 1).
  EXPECT_EQ(route[1], 2 * 8 + 2);
  EXPECT_EQ(t.link(route[1]).name, "leaf0->spine1");
  // Cross-leaf paths pay two switch hops.
  EXPECT_DOUBLE_EQ(t.path_latency(0, 5), 1e-6 + 2 * 5e-7);
  EXPECT_EQ(t.leaf_uplinks().size(), 4u);  // 2 leaves x 2 spines
}

TEST(NetTopology, RoutingIsDeterministic) {
  const auto a = NetTopology::fat_tree(12, 4, 3, 10.0, 20.0, 1e-6, 5e-7);
  const auto b = NetTopology::fat_tree(12, 4, 3, 10.0, 20.0, 1e-6, 5e-7);
  for (int s = 0; s < 12; ++s) {
    for (int d = 0; d < 12; ++d) {
      EXPECT_EQ(a.route(s, d), b.route(s, d)) << s << "->" << d;
    }
  }
}

TEST(NetTopology, InvalidParametersThrow) {
  EXPECT_THROW(NetTopology::fat_tree(0, 1, 1, 1.0, 1.0, 0.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(NetTopology::fat_tree(2, 2, 1, 0.0, 1.0, 0.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(NetTopology::fat_tree(4, 0, 1, 1.0, 1.0, 0.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(NetTopology::fat_tree(4, 2, 1, 1.0, 0.0, 0.0, 0.0),
               std::invalid_argument);
}

// --- fabric: max-min fair sharing -------------------------------------------

// 100 bytes/s NICs and zero latency make the arithmetic exact. A
// single-leaf tree routes every pair over its two NICs only.
struct FabricFixture {
  sim::Engine engine;
  std::unique_ptr<Fabric> fabric;

  explicit FabricFixture(NetTopology topo) {
    fabric = std::make_unique<Fabric>(engine, std::move(topo));
  }
  static FabricFixture single_leaf(int nodes) {
    return FabricFixture(
        NetTopology::fat_tree(nodes, nodes, 1, 100.0, 100.0, 0.0, 0.0));
  }
};

TEST(NetFabric, SingleFlowMatchesAnalyticCost) {
  auto f = FabricFixture::single_leaf(2);
  double done = -1.0;
  f.fabric->start_flow(0, 1, 1000, [&] { done = f.engine.now(); });
  f.engine.run();
  EXPECT_DOUBLE_EQ(done, 10.0);  // 1000 bytes / 100 B/s
  ASSERT_EQ(f.fabric->completion_times().size(), 1u);
  EXPECT_DOUBLE_EQ(f.fabric->completion_times()[0], 10.0);
}

TEST(NetFabric, TwoFlowBottleneckSharesFairly) {
  // Both flows cross nic1.out: 50 B/s each, both finish at t = 20.
  auto f = FabricFixture::single_leaf(3);
  double done_a = -1.0;
  double done_b = -1.0;
  f.fabric->start_flow(0, 1, 1000, [&] { done_a = f.engine.now(); });
  f.fabric->start_flow(2, 1, 1000, [&] { done_b = f.engine.now(); });
  f.engine.run();
  EXPECT_DOUBLE_EQ(done_a, 20.0);
  EXPECT_DOUBLE_EQ(done_b, 20.0);
  // The shared ejection NIC saturated; the injection NICs ran at half.
  EXPECT_DOUBLE_EQ(f.fabric->peak_utilization(3), 1.0);  // nic1.out
  EXPECT_DOUBLE_EQ(f.fabric->peak_utilization(0), 0.5);  // nic0.in
}

TEST(NetFabric, FinishedFlowReleasesBandwidth) {
  // A (500 B) and B (1000 B) share nic1.out at 50 B/s. A completes at
  // t = 10; B then streams its remaining 500 B at the full 100 B/s.
  auto f = FabricFixture::single_leaf(3);
  double done_a = -1.0;
  double done_b = -1.0;
  f.fabric->start_flow(0, 1, 500, [&] { done_a = f.engine.now(); });
  f.fabric->start_flow(2, 1, 1000, [&] { done_b = f.engine.now(); });
  f.engine.run();
  EXPECT_DOUBLE_EQ(done_a, 10.0);
  EXPECT_DOUBLE_EQ(done_b, 15.0);
}

TEST(NetFabric, NicInjectionCapSharedAcrossDestinations) {
  // Two flows from node 0 to distinct destinations: the shared injection
  // NIC is the bottleneck (50 B/s each) even though ejection is idle.
  auto f = FabricFixture::single_leaf(3);
  double done_a = -1.0;
  double done_b = -1.0;
  f.fabric->start_flow(0, 1, 1000, [&] { done_a = f.engine.now(); });
  f.fabric->start_flow(0, 2, 1000, [&] { done_b = f.engine.now(); });
  f.engine.run();
  EXPECT_DOUBLE_EQ(done_a, 20.0);
  EXPECT_DOUBLE_EQ(done_b, 20.0);
  EXPECT_DOUBLE_EQ(f.fabric->peak_utilization(0), 1.0);  // nic0.in
}

TEST(NetFabric, ThreeFlowMaxMinOnOversubscribedFatTree) {
  // nic = 100 B/s, uplink = 50 B/s, 1 spine. A: 0->2 and B: 1->3 share
  // the leaf0->spine0 uplink (25 B/s each); C: 3->2 stays under leaf 1
  // and gets the max-min residue of nic2.out: 75 B/s.
  FabricFixture f(NetTopology::fat_tree(4, 2, 1, 100.0, 50.0, 0.0, 0.0));
  double done_a = -1.0;
  double done_b = -1.0;
  double done_c = -1.0;
  f.fabric->start_flow(0, 2, 1000, [&] { done_a = f.engine.now(); });
  f.fabric->start_flow(1, 3, 1000, [&] { done_b = f.engine.now(); });
  f.fabric->start_flow(3, 2, 1000, [&] { done_c = f.engine.now(); });
  f.engine.run();
  EXPECT_DOUBLE_EQ(done_a, 40.0);              // 25 B/s on the uplink
  EXPECT_DOUBLE_EQ(done_b, 40.0);
  EXPECT_NEAR(done_c, 1000.0 / 75.0, 1e-9);    // max-min residue
  // p50/p99 of the FCT distribution straddle the two completion groups.
  EXPECT_LT(f.fabric->fct_quantile(0.0), 14.0);
  EXPECT_NEAR(f.fabric->fct_quantile(0.99), 40.0, 0.5);
}

TEST(NetFabric, ZeroByteFlowCostsLatencyAndSkipsFctSamples) {
  FabricFixture f(NetTopology::fat_tree(2, 2, 1, 100.0, 100.0, 2e-6, 0.0));
  double done = -1.0;
  f.fabric->start_flow(0, 1, 0, [&] { done = f.engine.now(); });
  f.engine.run();
  EXPECT_DOUBLE_EQ(done, 2e-6);
  EXPECT_EQ(f.fabric->flows_completed(), 1u);
  EXPECT_TRUE(f.fabric->completion_times().empty());
}

// --- fabric: fault composition ----------------------------------------------

TEST(NetFabric, GlobalBandwidthFaultSlowsEveryFlow) {
  auto f = FabricFixture::single_leaf(2);
  f.fabric->set_global_fault(1.0, 0.5);
  double done = -1.0;
  f.fabric->start_flow(0, 1, 1000, [&] { done = f.engine.now(); });
  f.engine.run();
  EXPECT_DOUBLE_EQ(done, 20.0);  // 50 B/s effective
}

TEST(NetFabric, MidFlightFaultReshapesRemainingBytes) {
  // 1000 B at 100 B/s; at t = 5 (500 B left) the fabric halves: the rest
  // streams at 50 B/s, completing at t = 5 + 10.
  auto f = FabricFixture::single_leaf(2);
  double done = -1.0;
  f.fabric->start_flow(0, 1, 1000, [&] { done = f.engine.now(); });
  f.engine.after(5.0, [&] { f.fabric->set_global_fault(1.0, 0.5); });
  f.engine.run();
  EXPECT_DOUBLE_EQ(done, 15.0);
}

TEST(NetFabric, PerLinkDegradationHitsOnlyCrossingFlows) {
  // Degrade nic1.out to 25 B/s: the 0->1 flow slows to 25, the 0->2 flow
  // keeps the injection residue (75 B/s after the degraded flow freezes).
  auto f = FabricFixture::single_leaf(3);
  f.fabric->degrade_link(3, 0.25);  // nic1.out
  double done_a = -1.0;
  double done_b = -1.0;
  f.fabric->start_flow(0, 1, 1000, [&] { done_a = f.engine.now(); });
  f.fabric->start_flow(0, 2, 1000, [&] { done_b = f.engine.now(); });
  f.engine.run();
  EXPECT_DOUBLE_EQ(done_a, 40.0);
  EXPECT_NEAR(done_b, 1000.0 / 75.0, 1e-9);
  EXPECT_DOUBLE_EQ(f.fabric->effective_capacity(3), 25.0);
}

// --- fabric: teardown and determinism ---------------------------------------

TEST(NetFabric, CancelMidTransferReleasesBandwidth) {
  // A and B share nic1.out at 50 B/s; A is torn down at t = 5, so B's
  // remaining 750 B stream at 100 B/s: done at t = 12.5. A's callback
  // must never fire.
  auto f = FabricFixture::single_leaf(3);
  bool a_fired = false;
  double done_b = -1.0;
  const FlowId a =
      f.fabric->start_flow(0, 1, 1000, [&] { a_fired = true; });
  f.fabric->start_flow(2, 1, 1000, [&] { done_b = f.engine.now(); });
  f.engine.after(5.0, [&] { f.fabric->cancel(a); });
  f.engine.run();
  EXPECT_FALSE(a_fired);
  EXPECT_DOUBLE_EQ(done_b, 12.5);
  EXPECT_EQ(f.fabric->flows_cancelled(), 1u);
  EXPECT_EQ(f.fabric->flows_completed(), 1u);
  // Idempotent: cancelling again (or a completed flow) is a no-op.
  f.fabric->cancel(a);
  EXPECT_EQ(f.fabric->flows_cancelled(), 1u);
}

TEST(NetFabric, IdenticalSchedulesProduceIdenticalTimings) {
  auto run_once = [] {
    FabricFixture f(NetTopology::fat_tree(8, 4, 2, 100.0, 60.0, 1e-6, 5e-7));
    for (int i = 0; i < 6; ++i) {
      f.fabric->start_flow(i % 4, 4 + (i % 3), 1000 + 137 * i, [] {});
    }
    f.engine.after(3.0, [&] {
      f.fabric->start_flow(7, 0, 5000, [] {});
    });
    f.engine.run();
    return f.fabric->completion_times();
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.size(), 7u);
  EXPECT_EQ(a, b);  // bitwise-equal doubles
}

// Pins the completion order the fabric's event scheduling must keep. A
// and B (A < B) share nic1.out and both become due at T = 20; X is a
// foreign event scheduled at T after the last solve. A fires first (the
// earliest (time, id) completion), its completion re-solves and re-arms
// B *behind* X, so the order is A, X, B. Each flow completion costs
// exactly one fired event.
TEST(NetFabric, SameInstantCompletionsInterleaveWithForeignEvents) {
  auto f = FabricFixture::single_leaf(3);
  std::vector<char> order;
  f.fabric->start_flow(0, 1, 1000, [&] { order.push_back('A'); });
  f.fabric->start_flow(2, 1, 1000, [&] { order.push_back('B'); });
  std::uint64_t fired_before = 0;
  f.engine.at(1.0, [&] {
    fired_before = f.engine.events_fired();
    f.engine.at(20.0, [&] { order.push_back('X'); });
  });
  f.engine.run();
  EXPECT_DOUBLE_EQ(f.engine.now(), 20.0);
  EXPECT_EQ(order, (std::vector<char>{'A', 'X', 'B'}));
  EXPECT_EQ(f.fabric->flows_completed(), 2u);
  // After t = 1 only X and the two completions fire.
  EXPECT_EQ(f.engine.events_fired() - fired_before,
            1u + f.fabric->flows_completed());
}

// --- ClusterRuntime integration ---------------------------------------------

core::RuntimeConfig net_config(int nodes, int cores, int degree) {
  core::RuntimeConfig cfg;
  cfg.cluster = sim::ClusterSpec::homogeneous(nodes, cores);
  cfg.appranks_per_node = 1;
  cfg.degree = degree;
  cfg.policy = core::PolicyKind::Global;
  cfg.global_period = 0.2;
  cfg.local_period = 0.05;
  cfg.net.enabled = true;
  cfg.net.leaf_radix = 2;
  cfg.net.spines = 1;
  return cfg;
}

apps::SyntheticConfig net_workload(int appranks, std::uint64_t bytes) {
  apps::SyntheticConfig scfg;
  scfg.appranks = appranks;
  scfg.iterations = 2;
  scfg.tasks_per_rank = 24;
  scfg.imbalance = 2.0;
  scfg.bytes_per_task = bytes;
  return scfg;
}

TEST(NetRuntime, DisabledKeepsAnalyticModelAndNoFabric) {
  core::RuntimeConfig cfg = net_config(4, 4, 2);
  cfg.net.enabled = false;
  apps::SyntheticWorkload wl(net_workload(4, 1 << 20));
  core::ClusterRuntime rt(cfg);
  const auto r = rt.run(wl);
  EXPECT_EQ(rt.fabric(), nullptr);
  EXPECT_EQ(r.iteration_times.size(), 2u);
}

TEST(NetRuntime, EnabledRunCompletesAndRoutesTransfersAsFlows) {
  core::RuntimeConfig cfg = net_config(4, 4, 2);
  apps::SyntheticWorkload wl(net_workload(4, 1 << 20));
  core::ClusterRuntime rt(cfg);
  const auto r = rt.run(wl);
  ASSERT_NE(rt.fabric(), nullptr);
  EXPECT_EQ(r.iteration_times.size(), 2u);
  EXPECT_GT(r.tasks_offloaded, 0u);
  EXPECT_GT(rt.fabric()->flows_completed(), 0u);
  EXPECT_GT(rt.fabric()->bytes_delivered(), 0u);
  EXPECT_EQ(rt.fabric()->active_flows(), 0);  // fully drained
  EXPECT_GT(rt.fabric()->fct_quantile(0.5), 0.0);
}

TEST(NetRuntime, EnabledRunsAreDeterministic) {
  auto run_once = [] {
    core::RuntimeConfig cfg = net_config(4, 4, 2);
    apps::SyntheticWorkload wl(net_workload(4, 1 << 20));
    core::ClusterRuntime rt(cfg);
    const auto r = rt.run(wl);
    return std::make_pair(r.makespan, r.events_fired);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);  // bitwise-equal makespans
  EXPECT_EQ(a.second, b.second);
}

TEST(NetRuntime, OversubscriptionSlowsTransfersNotCorrectness) {
  // Same run with a starved uplink: everything still completes, but the
  // congested fabric stretches the flow-completion tail.
  core::RuntimeConfig wide = net_config(4, 4, 2);
  apps::SyntheticWorkload wl1(net_workload(4, 4 << 20));
  core::ClusterRuntime rt_wide(wide);
  const auto r_wide = rt_wide.run(wl1);

  core::RuntimeConfig narrow = net_config(4, 4, 2);
  narrow.net.uplink_bandwidth = narrow.cluster.link.bandwidth / 64.0;
  apps::SyntheticWorkload wl2(net_workload(4, 4 << 20));
  core::ClusterRuntime rt_narrow(narrow);
  const auto r_narrow = rt_narrow.run(wl2);

  // Makespan is not compared: slower transfers also shift scheduling
  // decisions (locality wins more ties), which can offset the congestion.
  // The fabric-level signals are monotone.
  EXPECT_EQ(r_narrow.iteration_times.size(), 2u);
  EXPECT_GT(rt_narrow.fabric()->fct_quantile(0.99),
            rt_wide.fabric()->fct_quantile(0.99));
  double narrow_peak = 0.0;
  double wide_peak = 0.0;
  for (const LinkId l : rt_narrow.fabric()->topology().leaf_uplinks()) {
    narrow_peak = std::max(narrow_peak, rt_narrow.fabric()->peak_utilization(l));
  }
  for (const LinkId l : rt_wide.fabric()->topology().leaf_uplinks()) {
    wide_peak = std::max(wide_peak, rt_wide.fabric()->peak_utilization(l));
  }
  EXPECT_GE(narrow_peak, wide_peak);
  EXPECT_DOUBLE_EQ(narrow_peak, 1.0);  // the starved uplink saturates
}

TEST(NetRuntime, WorkerCrashMidTransferTearsDownFlows) {
  // Starve the NICs so every eager input transfer takes ~1 s, then crash
  // a helper while payloads are streaming towards it: its flows must be
  // cancelled and the tasks re-executed elsewhere.
  core::RuntimeConfig cfg = net_config(4, 4, 3);
  cfg.cluster.link.bandwidth = 4.0 * (1 << 20);  // ~1 s per 4 MiB transfer
  cfg.net.uplink_bandwidth = 8.0 * (1 << 20);
  apps::SyntheticWorkload wl(net_workload(4, 4 << 20));
  core::ClusterRuntime rt(cfg);
  const core::WorkerId victim = rt.topology().workers_of_apprank(0)[1];
  ASSERT_FALSE(rt.topology().worker(victim).is_home);
  rt.schedule_external(0.5, [&rt, victim] { rt.crash_worker(victim); });
  const auto r = rt.run(wl);

  EXPECT_EQ(r.workers_crashed, 1u);
  EXPECT_EQ(r.iteration_times.size(), 2u);
  EXPECT_GE(rt.fabric()->flows_cancelled(), 1u);
  EXPECT_GT(r.tasks_reexecuted, 0u);
  EXPECT_EQ(rt.fabric()->active_flows(), 0);
}

TEST(NetRuntime, LinkFaultComposesWithFabric) {
  // Halving the fabric bandwidth mid-run must slow the congested run
  // further and keep it correct.
  core::RuntimeConfig cfg = net_config(4, 4, 2);
  apps::SyntheticWorkload wl1(net_workload(4, 4 << 20));
  core::ClusterRuntime clean(cfg);
  const auto r_clean = clean.run(wl1);

  apps::SyntheticWorkload wl2(net_workload(4, 4 << 20));
  core::ClusterRuntime rt(cfg);
  rt.schedule_external(0.0, [&rt] {
    vmpi::LinkFault fault;
    fault.bandwidth_mult = 0.05;
    rt.set_link_fault(fault);
  });
  const auto r = rt.run(wl2);
  EXPECT_EQ(r.iteration_times.size(), 2u);
  EXPECT_GT(r.makespan, r_clean.makespan);
}

// --- exactness oracle --------------------------------------------------------

/// Reference max-min rates by naive progressive filling: every round
/// re-divides every link's residual by its unfrozen count and rescans
/// every flow's route. `routes` maps each streaming flow (id order) to its
/// route. Fabric::solve() must reproduce these rates bit for bit.
std::map<FlowId, double> reference_rates(
    const Fabric& fabric, const std::map<FlowId, std::vector<LinkId>>& routes) {
  const auto links = static_cast<std::size_t>(fabric.topology().link_count());
  std::vector<double> residual(links);
  std::vector<int> unfrozen(links, 0);
  for (std::size_t l = 0; l < links; ++l) {
    residual[l] = fabric.effective_capacity(static_cast<LinkId>(l));
  }
  std::map<FlowId, double> rate;
  for (const auto& [id, route] : routes) {
    rate[id] = 0.0;
    for (LinkId l : route) ++unfrozen[static_cast<std::size_t>(l)];
  }
  std::size_t remaining = routes.size();
  while (remaining > 0) {
    double share = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < links; ++l) {
      if (unfrozen[l] > 0) share = std::min(share, residual[l] / unfrozen[l]);
    }
    std::size_t froze = 0;
    for (const auto& [id, route] : routes) {
      if (rate[id] > 0.0) continue;
      bool at_bottleneck = false;
      for (LinkId l : route) {
        const auto sl = static_cast<std::size_t>(l);
        if (residual[sl] / unfrozen[sl] <= share) {
          at_bottleneck = true;
          break;
        }
      }
      if (!at_bottleneck) continue;
      rate[id] = share;
      ++froze;
      for (LinkId l : route) {
        const auto sl = static_cast<std::size_t>(l);
        residual[sl] = std::max(0.0, residual[sl] - share);
        --unfrozen[sl];
      }
    }
    EXPECT_GT(froze, 0u) << "reference filling stalled";
    if (froze == 0) break;
    remaining -= froze;
  }
  return rate;
}

/// Seeded churn over a zero-latency topology (a fat-tree unless given):
/// bursty arrivals skewed to a few hot destinations, sporadic cancels, a
/// global bandwidth fault and link degradations mid-run. After every
/// mutation the test audits every flow it started: streaming flows must
/// report exactly the reference rate, everything else 0.
struct ChurnHarness {
  explicit ChurnHarness(
      NetTopology t = NetTopology::fat_tree(32, 8, 2, 100.0, 400.0, 0.0, 0.0))
      : topo(std::move(t)), fabric(engine, topo) {}

  /// Starts a flow; with zero latency its injection fires next at this
  /// instant, and the marker pushed right behind it records the flow as
  /// streaming before anything else can run.
  void start(NodeId src, NodeId dst, std::uint64_t bytes) {
    const std::size_t k = ids.size();
    ids.push_back(fabric.start_flow(src, dst, bytes, [this, k] {
      ++completions[k];
      routes.erase(ids[k]);
      audit();
    }));
    completions.push_back(0);
    const FlowId id = ids.back();
    engine.after(0.0, [this, id, src, dst] {
      if (fabric.active(id)) routes[id] = topo.route(src, dst);
      audit();
    });
  }
  void cancel(std::size_t k) {
    if (k >= ids.size()) return;
    fabric.cancel(ids[k]);
    routes.erase(ids[k]);
    audit();
  }
  void audit() {
    ++audits;
    const std::map<FlowId, double> expected = reference_rates(fabric, routes);
    for (const FlowId id : ids) {
      auto it = expected.find(id);
      const double want = it == expected.end() ? 0.0 : it->second;
      ASSERT_EQ(fabric.flow_rate(id), want) << "flow " << id;
      ASSERT_EQ(fabric.active(id), it != expected.end()) << "flow " << id;
    }
  }

  sim::Engine engine;
  NetTopology topo;
  Fabric fabric;
  std::vector<FlowId> ids;
  std::vector<int> completions;
  std::map<FlowId, std::vector<LinkId>> routes;  ///< streaming flows
  int audits = 0;
};

/// Schedules `flows` seeded arrivals, a cancel after every fifth, and
/// fault changes spread over the arrival window.
void schedule_churn(ChurnHarness& h, int flows, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto nodes = static_cast<std::uint64_t>(h.topo.node_count());
  for (int i = 0; i < flows; ++i) {
    const auto src = static_cast<int>(rng() % nodes);
    auto dst = static_cast<int>(rng() % (i % 3 == 0 ? 4 : nodes));
    if (dst == src) dst = (dst + 1) % static_cast<int>(nodes);
    const std::uint64_t bytes = 1 + rng() % 2000;
    const sim::SimTime t = 0.05 * static_cast<double>(i);
    h.engine.at(t, [&h, src, dst, bytes] { h.start(src, dst, bytes); });
    if (i % 5 == 4) {
      const std::size_t victim = rng() % static_cast<std::size_t>(i + 1);
      h.engine.at(t + 0.025, [&h, victim] { h.cancel(victim); });
    }
  }
  // Fault changes land between arrivals and cancels, never on them.
  const sim::SimTime span = 0.05 * flows;
  const int links = h.topo.link_count();
  const auto at = [&h](sim::SimTime t, std::function<void()> change) {
    h.engine.at(t + 0.0125, [&h, change = std::move(change)] {
      change();
      h.audit();
    });
  };
  at(0.21 * span, [&h] { h.fabric.set_global_fault(1.5, 0.4); });
  // The last link is a spine->leaf one; a single leaf routes nothing over
  // it, so there the last node's ejection NIC takes its place.
  const int hot = h.topo.leaf_count() > 1 ? links - 1
                                          : 2 * h.topo.node_count() - 1;
  at(0.33 * span, [&h, hot] { h.fabric.degrade_link(hot, 0.3); });
  at(0.47 * span, [&h] { h.fabric.degrade_link(3, 0.5); });
  at(0.62 * span, [&h] { h.fabric.set_global_fault(1.0, 1.0); });
  at(0.78 * span, [&h, hot] { h.fabric.degrade_link(hot, 1.0); });
}

/// Runs a 600-flow churn to the end: one audit per arrival, cancel, fault
/// change and completion at least, and a real share of the rounds kept
/// from the previous filling rather than rerun (41-43% at these seeds).
void expect_exact_warm_churn(ChurnHarness& h, std::uint64_t seed) {
  schedule_churn(h, 600, seed);
  h.engine.run();
  EXPECT_GT(h.audits, 600 + 120 + 5);
  EXPECT_EQ(h.fabric.active_flows(), 0);
  const Fabric& fab = h.fabric;
  EXPECT_GT(fab.solver_rounds_replayed(), fab.solver_rounds() / 3)
      << fab.solver_rounds_replayed() << " of " << fab.solver_rounds();
}

TEST(NetFabricOracle, RatesMatchReferenceFillingUnderRandomChurn) {
  ChurnHarness h;
  expect_exact_warm_churn(h, 0x1722ull);
}

// A single leaf holding every node is a crossbar switch: only the NICs
// are shared.
TEST(NetFabricOracle, CrossbarRatesMatchReferenceFillingUnderRandomChurn) {
  ChurnHarness h(NetTopology::fat_tree(32, 32, 1, 100.0, 100.0, 0.0, 0.0));
  expect_exact_warm_churn(h, 0x5EEDull);
}

/// Solver round counters, read between scripted steps.
struct Rounds {
  std::uint64_t run = 0;
  std::uint64_t replayed = 0;
};
Rounds rounds_of(const Fabric& fabric) {
  return {fabric.solver_rounds(), fabric.solver_rounds_replayed()};
}

/// A zero-latency single-leaf tree with unit NICs, so degrade_link() sets
/// a link's capacity to exactly its multiplier; its NIC links are
/// inject[n] = 2n and eject[n] = 2n + 1.
ChurnHarness unit_single_leaf(int nodes) {
  return ChurnHarness(
      NetTopology::fat_tree(nodes, nodes, 1, 1.0, 1.0, 0.0, 0.0));
}

/// Starts a long flow at `t`; each start needs an instant of its own, so
/// that its audit sees it streaming and no other flow in latency.
void start_at(ChurnHarness& h, sim::SimTime t, NodeId src, NodeId dst) {
  h.engine.at(t, [&h, src, dst] { h.start(src, dst, 1000000); });
}

/// Five flows into node 0 each freeze in round 0 at their own 0.7 NIC; a
/// sixth flow joins nic0.out. `capacity` sets nic0.out; returns the round
/// counters of the sixth flow's solve.
Rounds sixth_flow_on_shared_eject(double capacity) {
  ChurnHarness h = unit_single_leaf(7);
  for (int n = 1; n <= 5; ++n) h.fabric.degrade_link(2 * n, 0.7);
  h.fabric.degrade_link(1, capacity);
  for (int n = 1; n <= 5; ++n) start_at(h, 0.1 * n, n, 0);
  Rounds before;
  Rounds after;
  h.engine.at(1.0, [&] {
    before = rounds_of(h.fabric);
    h.start(6, 0, 1000000);
    h.engine.after(0.0, [&] { after = rounds_of(h.fabric); });
  });
  h.engine.run();
  EXPECT_EQ(h.fabric.active_flows(), 0);
  return {after.run - before.run, after.replayed - before.replayed};
}

TEST(NetFabricOracle, NearTieStopsTheReplayWhereRoundingDoes) {
  // nic0.out = 4.2 shared by six flows. In exact arithmetic its share
  // stays above the 0.7 level at every step of round 0, and the sixth
  // flow would get 4.2 - 5 x 0.7 = 0.7000000000000004 in round 1. In
  // doubles the share starts above the level (4.2 / 6 =
  // 0.7000000000000001), but after one freeze (4.2 - 0.7) / 5 rounds to
  // exactly 0.7, and five subtractions leave 0.6999999999999997: the cold
  // filling freezes the sixth flow in round 0, so round 0 cannot repeat.
  const Rounds tie = sixth_flow_on_shared_eject(4.2);
  EXPECT_EQ(tie.replayed, 0u);
  EXPECT_EQ(tie.run, 1u);
  // Clear of the tie, the sixth flow outlasts round 0 and it repeats.
  const Rounds clear = sixth_flow_on_shared_eject(4.3);
  EXPECT_EQ(clear.replayed, 1u);
  EXPECT_EQ(clear.run, 2u);
}

TEST(NetFabricOracle, WarmStartAtTheEdgesOfTheKeptFilling) {
  // nic1.in = 0.2 freezes A in round 0; B and C then split nic0.out's
  // remaining 0.8 in round 1; D crosses idle NICs and freezes in round 2.
  ChurnHarness h = unit_single_leaf(6);
  h.fabric.degrade_link(2, 0.2);
  start_at(h, 0.1, 1, 0);  // A
  start_at(h, 0.2, 2, 0);  // B
  start_at(h, 0.3, 3, 0);  // C
  start_at(h, 0.4, 4, 5);  // D
  Rounds before;
  Rounds cancel_a;
  Rounds cancel_d;
  Rounds add_e;
  h.engine.at(1.0, [&] {
    ASSERT_EQ(h.fabric.flow_rate(h.ids[0]), 0.2);
    before = rounds_of(h.fabric);
    h.cancel(0);  // A froze in round 0: nothing repeats
    cancel_a = rounds_of(h.fabric);
    h.cancel(3);  // D froze in round 1 of the new filling: round 0 repeats
    cancel_d = rounds_of(h.fabric);
    // B and C share nic0.out in round 0. E crosses idle NICs above that
    // level, so it outlasts every old round: all of them repeat.
    h.start(4, 5, 1000000);
    h.engine.after(0.0, [&] { add_e = rounds_of(h.fabric); });
  });
  h.engine.run();
  EXPECT_EQ(cancel_a.replayed - before.replayed, 0u);
  EXPECT_EQ(cancel_a.run - before.run, 2u);
  EXPECT_EQ(cancel_d.replayed - cancel_a.replayed, 1u);
  EXPECT_EQ(cancel_d.run - cancel_a.run, 1u);
  EXPECT_EQ(add_e.replayed - cancel_d.replayed, 1u);
  EXPECT_EQ(add_e.run - cancel_d.run, 2u);
  EXPECT_EQ(h.fabric.active_flows(), 0);
}

TEST(NetFabricOracle, EveryFlowCompletesExactlyOnce) {
  ChurnHarness h;
  schedule_churn(h, 600, 0xD2A1ull);
  h.engine.run();
  const Fabric& fab = h.fabric;
  EXPECT_EQ(fab.active_flows(), 0);
  EXPECT_EQ(fab.flows_started(), 600u);
  EXPECT_EQ(fab.flows_completed() + fab.flows_cancelled(), fab.flows_started());
  EXPECT_GT(fab.flows_cancelled(), 0u);
  std::uint64_t completed = 0;
  for (const int n : h.completions) {
    EXPECT_LE(n, 1);
    completed += static_cast<std::uint64_t>(n);
  }
  EXPECT_EQ(completed, fab.flows_completed());
  EXPECT_EQ(fab.completion_times().size(), fab.flows_completed());
}

}  // namespace
}  // namespace tlb::net
