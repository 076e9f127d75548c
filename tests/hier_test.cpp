// Tests of the hierarchical two-level scheduler (tlb::hier): LocalMaster
// summary maintenance, GlobalBalancer victim selection over summaries,
// end-to-end runs proving the disabled default stays bit-identical to the
// golden schedule while the enabled path completes with a bounded
// per-decision probe cost.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "apps/synthetic.hpp"
#include "core/policies.hpp"
#include "core/runtime.hpp"
#include "fingerprint.hpp"
#include "graph/expander.hpp"
#include "hier/global_balancer.hpp"
#include "hier/hier_scheduler.hpp"
#include "hier/local_master.hpp"
#include "sched/config.hpp"

namespace {

using namespace tlb;
using namespace tlb::golden;

// Same minimal fake as sched_test.cpp: a real (small) expander topology
// with settable in-flight counts, ownership, liveness and clock.
class FakeView final : public sched::RuntimeView {
 public:
  explicit FakeView(int nodes = 3, int degree = 3) {
    graph::ExpanderParams p;
    p.nodes = nodes;
    p.appranks_per_node = 1;
    p.degree = degree;
    p.seed = 1;
    expander_ = graph::build_expander(p);
    topo_ = std::make_unique<core::Topology>(expander_.graph, 1);
    inflight_.assign(static_cast<std::size_t>(topo_->worker_count()), 0);
    owned_.assign(static_cast<std::size_t>(topo_->worker_count()), 2);
    usable_.assign(static_cast<std::size_t>(topo_->worker_count()), 1);
    for (int a = 0; a < topo_->apprank_count(); ++a) {
      locs_.push_back(
          std::make_unique<nanos::DataLocations>(topo_->home_node(a)));
    }
  }

  [[nodiscard]] const core::Topology& topology() const override {
    return *topo_;
  }
  [[nodiscard]] bool usable(core::WorkerId w) const override {
    return usable_[static_cast<std::size_t>(w)] != 0;
  }
  [[nodiscard]] int inflight(core::WorkerId w) const override {
    return inflight_[static_cast<std::size_t>(w)];
  }
  [[nodiscard]] int owned_cores(core::WorkerId w) const override {
    return owned_[static_cast<std::size_t>(w)];
  }
  [[nodiscard]] int inflight_per_core() const override { return 2; }
  [[nodiscard]] const nanos::DataLocations& locations(
      int apprank) const override {
    return *locs_[static_cast<std::size_t>(apprank)];
  }
  [[nodiscard]] sim::SimTime now() const override { return now_; }
  [[nodiscard]] const net::Fabric* fabric() const override {
    return nullptr;
  }

  /// Every worker of `node` gets this in-flight count.
  void set_node_inflight(int node, int n) {
    for (const core::WorkerId w : topo_->workers_on_node(node)) {
      inflight_[static_cast<std::size_t>(w)] = n;
    }
  }

  sim::SimTime now_ = 0.0;
  std::vector<int> inflight_;
  std::vector<int> owned_;
  std::vector<char> usable_;

 private:
  graph::ExpanderResult expander_;
  std::unique_ptr<core::Topology> topo_;
  std::vector<std::unique_ptr<nanos::DataLocations>> locs_;
};

// --- LocalMaster --------------------------------------------------------------

TEST(LocalMaster, RefreshBuildsSummaryAndChargesTheWalk) {
  FakeView view;  // 3 nodes all-to-all: 3 workers per node, 2 cores each
  hier::LocalMaster m(0);
  EXPECT_FALSE(m.fresh(0.0, 1.0));  // never refreshed = always stale

  const std::uint64_t probes = m.refresh(view, 0.0);
  // Per worker: the in-flight read + the owned-core registry scan — the
  // same accounting under_threshold() charges a flat policy per probe.
  EXPECT_EQ(probes, 3u * (1u + 2u));
  EXPECT_EQ(m.refreshes(), 1u);
  EXPECT_TRUE(m.fresh(0.0, 1.0));
  EXPECT_FALSE(m.fresh(1.5, 1.0));  // aged out

  const hier::NodeSummary& s = m.summary();
  EXPECT_EQ(s.node, 0);
  ASSERT_EQ(s.workers.size(), 3u);
  // slack = inflight_per_core * owned - inflight = 2*2 - 0 per worker.
  EXPECT_EQ(s.total_slack, 12);
  EXPECT_DOUBLE_EQ(s.load_ratio, 0.0);

  // Load shows up in the aggregate on the next refresh.
  view.set_node_inflight(0, 3);
  m.refresh(view, 2.0);
  EXPECT_EQ(m.summary().total_slack, 3);  // (4-3) x 3 workers
  EXPECT_DOUBLE_EQ(m.summary().load_ratio, 9.0 / 6.0);
}

TEST(LocalMaster, NotePlacedDecrementsSlackOptimistically) {
  FakeView view;
  hier::LocalMaster m(0);
  m.refresh(view, 0.0);
  const core::WorkerId w = view.topology().workers_on_node(0)[0];
  ASSERT_EQ(m.summary().total_slack, 12);

  m.note_placed(w);
  EXPECT_EQ(m.summary().total_slack, 11);
  // The decrement is per worker, so the same worker drains first.
  m.note_placed(w);
  m.note_placed(w);
  m.note_placed(w);
  EXPECT_EQ(m.summary().total_slack, 8);
  // An unknown worker (joined after the refresh) is ignored, not UB.
  m.note_placed(999);
  EXPECT_EQ(m.summary().total_slack, 8);
}

// --- GlobalBalancer -----------------------------------------------------------

TEST(GlobalBalancer, PlacesAtHomeWhileItHasSlack) {
  FakeView view;
  hier::GlobalBalancer gb(hier::HierConfig{}, view);
  sched::SchedStats stats;
  nanos::Task t;
  t.apprank = 0;
  const core::WorkerId home = view.topology().home_worker(0);

  // Home has slack 4; the first four picks go home on optimistic
  // decrements with no re-refresh (the clock never moves).
  for (int i = 0; i < 4; ++i) {
    const sched::Decision d = gb.pick(t, stats);
    EXPECT_EQ(d.worker, home);
    EXPECT_EQ(d.kind, sched::DecisionKind::Baseline);
  }
  // The fifth pick sees home exhausted and steers to a remote candidate.
  const sched::Decision d = gb.pick(t, stats);
  EXPECT_NE(d.worker, home);
  EXPECT_GE(d.worker, 0);
  EXPECT_EQ(d.kind, sched::DecisionKind::Steered);
  EXPECT_EQ(stats.decisions, 5u);
  EXPECT_EQ(stats.offloads_steered, 1u);
  // Exactly one refresh per consulted node happened (summaries stayed
  // fresh): the per-decision probe cost is the summary reads.
  EXPECT_EQ(gb.summary_refreshes(), gb.master_count());
}

TEST(GlobalBalancer, SteersToTheLeastLoadedRemoteNode) {
  FakeView view;
  view.set_node_inflight(0, 4);  // home saturated (slack 0)
  view.set_node_inflight(1, 3);  // load_ratio 1.5
  view.set_node_inflight(2, 1);  // load_ratio 0.5 <- expected victim
  hier::GlobalBalancer gb(hier::HierConfig{}, view);
  sched::SchedStats stats;
  nanos::Task t;
  t.apprank = 0;

  const sched::Decision d = gb.pick(t, stats);
  EXPECT_EQ(d.kind, sched::DecisionKind::Steered);
  EXPECT_EQ(view.topology().worker(d.worker).node, 2);
  EXPECT_EQ(stats.offloads_considered, 1u);
}

TEST(GlobalBalancer, StaleSummaryNeverBeatsTheLiveLivenessCheck) {
  FakeView view;
  // The fake clock never moves, so every summary stays inside one
  // kSummaryPeriod of its priming refresh and is never rebuilt.
  ASSERT_LT(view.now_, hier::kSummaryPeriod);
  hier::GlobalBalancer gb(hier::HierConfig{}, view);
  sched::SchedStats stats;
  nanos::Task t;
  t.apprank = 0;

  // Prime every summary with full slack...
  (void)gb.pick(t, stats);
  // ...then saturate home and kill the remotes *without* a refresh: the
  // summaries still promise slack everywhere, but the live usable() check
  // must win and the task must be held centrally.
  view.set_node_inflight(0, 4);
  const core::WorkerId home = view.topology().home_worker(0);
  for (const core::WorkerId w : view.topology().workers_of_apprank(0)) {
    if (w != home) view.usable_[static_cast<std::size_t>(w)] = 0;
  }
  // Drain home's optimistic slack (3 left after the priming pick).
  for (int i = 0; i < 3; ++i) (void)gb.pick(t, stats);
  const sched::Decision d = gb.pick(t, stats);
  EXPECT_EQ(d.worker, -1);
  EXPECT_EQ(d.kind, sched::DecisionKind::Baseline);
}

TEST(GlobalBalancer, HotHelperNodesAreVetoedAsSuppressed) {
  FakeView view;
  view.set_node_inflight(0, 4);  // home saturated, remotes have slack
  hier::GlobalBalancer gb(hier::HierConfig{}, view);
  sched::SchedStats stats;
  nanos::Task t;
  t.apprank = 0;

  // Tasks on the remote nodes observed long queue waits; home saw none.
  const core::WorkerId home = view.topology().home_worker(0);
  for (const core::WorkerId w : view.topology().workers_of_apprank(0)) {
    if (w != home) gb.on_task_started(w, 1.0);
  }
  const sched::Decision d = gb.pick(t, stats);
  EXPECT_EQ(d.worker, -1);
  EXPECT_EQ(d.kind, sched::DecisionKind::Suppressed);
  EXPECT_EQ(stats.offloads_suppressed, 1u);

  // The wait estimates decay: much later the same nodes are candidates
  // again (idle-then-bursty nodes are not judged by stale samples).
  view.now_ = 1000.0;
  const sched::Decision later = gb.pick(t, stats);
  EXPECT_EQ(later.kind, sched::DecisionKind::Steered);
}

// --- end-to-end ---------------------------------------------------------------

// The shared golden run (tests/fingerprint.hpp) proves the hier
// subsystem's *presence* changes nothing while it is not selected.
TEST(HierScheduler, DisabledDefaultStaysBitIdenticalToGolden) {
  core::RuntimeConfig cfg = plain_config();
  EXPECT_EQ(cfg.sched.policy, "locality");
  apps::SyntheticWorkload wl(plain_workload());
  core::ClusterRuntime rt(cfg);
  EXPECT_EQ(schedule_fingerprint(rt, rt.run(wl)), kGoldenPlain);
}

TEST(HierScheduler, EnabledRunCompletesWithBoundedProbeCost) {
  apps::SyntheticWorkload wl_base(plain_workload());
  core::ClusterRuntime base_rt(plain_config());
  const auto base = base_rt.run(wl_base);

  core::RuntimeConfig cfg = plain_config();
  cfg.sched.policy = "hier";
  apps::SyntheticWorkload wl(plain_workload());
  core::ClusterRuntime rt(cfg);
  const auto r = rt.run(wl);

  EXPECT_EQ(r.sched_policy, "hier");
  EXPECT_EQ(r.tasks_total, base.tasks_total);  // every task ran exactly once
  ASSERT_GT(r.sched.decisions, 0u);
  ASSERT_GT(base.sched.decisions, 0u);
  // The whole point: summary reads beat the flat per-decision walk.
  const double hier_cost = static_cast<double>(r.sched.state_touched) /
                           static_cast<double>(r.sched.decisions);
  const double flat_cost = static_cast<double>(base.sched.state_touched) /
                           static_cast<double>(base.sched.decisions);
  EXPECT_LT(hier_cost, flat_cost);

  const auto* hier_sched =
      dynamic_cast<const hier::HierScheduler*>(&rt.scheduler());
  ASSERT_NE(hier_sched, nullptr);
  EXPECT_GT(hier_sched->summary_refreshes(), 0u);
}

}  // namespace
