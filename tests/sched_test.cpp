// Tests of the pluggable scheduler subsystem (tlb::sched): golden-schedule
// regressions proving the extraction of the §5.5 rule out of the runtime
// kept placements bit-identical, policy table error paths, and the
// behaviour of the congestion / waittime feedback policies.
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/synthetic.hpp"
#include "core/policies.hpp"
#include "core/runtime.hpp"
#include "dlb/report.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fingerprint.hpp"
#include "graph/expander.hpp"
#include "net/config.hpp"
#include "sched/ewma.hpp"
#include "sched/policies.hpp"

namespace {

using namespace tlb;
using namespace tlb::golden;

// Minimal sched::RuntimeView over a real (small) expander topology, for
// unit-testing policies without a ClusterRuntime: every worker owns
// `owned` cores, in-flight counts and the clock are settable.
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

  sim::SimTime now_ = 0.0;
  std::vector<int> inflight_;
  std::vector<int> owned_;
  std::vector<char> usable_;

 private:
  graph::ExpanderResult expander_;
  std::unique_ptr<core::Topology> topo_;
  std::vector<std::unique_ptr<nanos::DataLocations>> locs_;
};

// --- golden schedule fingerprints --------------------------------------------
//
// The runs and constants are shared (tests/fingerprint.hpp). They were
// captured from the binary with the §5.5 rule still hard-coded in
// core/runtime.cpp and must never change for sched=locality: they prove
// the extraction is bit-identical, including crash/rescue re-queues and
// net-mode runs.

TEST(GoldenSchedule, LocalityDefaultIsBitIdenticalToLegacy) {
  apps::SyntheticWorkload wl(plain_workload());
  core::ClusterRuntime rt(plain_config());
  const auto r = rt.run(wl);
  EXPECT_EQ(schedule_fingerprint(rt, r), kGoldenPlain);
  EXPECT_EQ(r.sched_policy, "locality");
  EXPECT_EQ(r.sched.offloads_steered, 0u);
  EXPECT_EQ(r.sched.offloads_suppressed, 0u);
  EXPECT_GT(r.sched.decisions, 0u);
}

TEST(GoldenSchedule, ExplicitLocalityNameMatchesDefault) {
  core::RuntimeConfig cfg = plain_config();
  cfg.sched.policy = "locality";
  apps::SyntheticWorkload wl(plain_workload());
  core::ClusterRuntime rt(cfg);
  EXPECT_EQ(schedule_fingerprint(rt, rt.run(wl)), kGoldenPlain);
}

TEST(GoldenSchedule, CrashRescueReplaysIdentically) {
  core::RuntimeConfig cfg;
  cfg.cluster = sim::ClusterSpec::homogeneous(4, 8);
  cfg.appranks_per_node = 1;
  cfg.degree = 2;
  cfg.policy = core::PolicyKind::Global;
  core::ClusterRuntime rt(cfg);
  apps::SyntheticConfig scfg;
  scfg.appranks = 4;
  scfg.iterations = 6;
  scfg.tasks_per_rank = 120;
  scfg.imbalance = 2.0;
  apps::SyntheticWorkload wl(scfg);
  fault::FaultInjector injector(
      fault::FaultPlan()
          .lose_messages(0.10, 0.5, 2.5)
          .degrade_link(2.0, 0.5, 1e-5, 1.0, 3.0)
          .crash_worker(rt.topology().workers_of_apprank(0)[1], 1.5));
  injector.attach(rt);
  EXPECT_EQ(schedule_fingerprint(rt, rt.run(wl)), kGoldenCrash);
}

TEST(GoldenSchedule, NetEnabledRunReplaysIdentically) {
  apps::SyntheticWorkload wl(net_workload());
  core::ClusterRuntime rt(net_config());
  EXPECT_EQ(schedule_fingerprint(rt, rt.run(wl)), kGoldenNet);
}

// Without a fabric there is no congestion signal: the congestion policy
// must decay to the locality rule *exactly*, not just approximately.
TEST(GoldenSchedule, CongestionWithoutFabricDecaysToLocality) {
  core::RuntimeConfig cfg = plain_config();
  cfg.sched.policy = "congestion";
  apps::SyntheticWorkload wl(plain_workload());
  core::ClusterRuntime rt(cfg);
  const auto r = rt.run(wl);
  EXPECT_EQ(schedule_fingerprint(rt, r), kGoldenPlain);
  EXPECT_EQ(r.sched_policy, "congestion");
  EXPECT_EQ(r.sched.offloads_steered, 0u);
  EXPECT_EQ(r.sched.offloads_suppressed, 0u);
}

// --- per-policy golden fingerprints on a saturated fat-tree -------------------
//
// One run per feedback policy on an 8-node fat-tree whose uplinks are
// 16:1 oversubscribed and whose tasks stream 4 MiB inputs, so the
// congestion veto and FCT feedback, the waittime thresholds, the adaptive
// portfolio's probe cycle and the hier balancer's vetoes and residency
// tie-break all shape the schedule. The policies' tuning values are
// fixed; these pins make any change to one of them visible.

core::RuntimeConfig fat_tree_config(const char* policy) {
  core::RuntimeConfig cfg;
  cfg.cluster = sim::ClusterSpec::homogeneous(8, 8);
  cfg.cluster.link.bandwidth = 2e8;
  cfg.appranks_per_node = 1;
  cfg.degree = 3;
  cfg.policy = core::PolicyKind::Global;
  cfg.global_period = 0.2;
  cfg.local_period = 0.05;
  cfg.net.enabled = true;
  cfg.net.leaf_radix = 4;
  cfg.net.spines = 1;
  cfg.net.uplink_bandwidth = 5e7;  // four 2e8 NICs share it: 16:1
  cfg.sched.policy = policy;
  return cfg;
}

apps::SyntheticConfig fat_tree_workload() {
  apps::SyntheticConfig cfg;
  cfg.appranks = 8;
  cfg.iterations = 8;
  cfg.tasks_per_rank = 48;
  cfg.base_duration = 0.020;
  cfg.imbalance = 2.5;
  cfg.bytes_per_task = 4 << 20;
  return cfg;
}

std::uint64_t fat_tree_fingerprint(const char* policy) {
  apps::SyntheticWorkload wl(fat_tree_workload());
  core::ClusterRuntime rt(fat_tree_config(policy));
  const auto r = rt.run(wl);
  EXPECT_EQ(r.sched_policy, policy);
  return schedule_fingerprint(rt, r);
}

TEST(GoldenSchedule, CongestionOnSaturatedFatTree) {
  EXPECT_EQ(fat_tree_fingerprint("congestion"), 0xa7d6cea3697b75f8ull);
}

TEST(GoldenSchedule, WaittimeOnSaturatedFatTree) {
  EXPECT_EQ(fat_tree_fingerprint("waittime"), 0x9c9e454ba9a1a3bfull);
}

TEST(GoldenSchedule, AdaptiveOnSaturatedFatTree) {
  EXPECT_EQ(fat_tree_fingerprint("adaptive"), 0x8230500887c523acull);
}

TEST(GoldenSchedule, HierOnSaturatedFatTree) {
  EXPECT_EQ(fat_tree_fingerprint("hier"), 0xe2adf54f8bfddf6eull);
}

// --- policy table / config validation (no silent fallbacks) ------------------

TEST(SchedRegistry, KnownPoliciesListsBuiltinsInOrder) {
  core::RuntimeConfig cfg = plain_config();
  for (const char* name :
       {"locality", "congestion", "waittime", "adaptive", "hier"}) {
    cfg.sched.policy = name;
    EXPECT_NO_THROW(core::ClusterRuntime{cfg}) << name;
  }
  cfg.sched.policy = "bogus";
  try {
    core::ClusterRuntime rt(cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'bogus'; valid values: locality, congestion, "
                       "waittime, adaptive, hier"),  // first = default
              std::string::npos)
        << msg;
  }
}

TEST(SchedRegistry, UnknownPolicyNameThrowsListingValidValues) {
  core::RuntimeConfig cfg = plain_config();
  cfg.sched.policy = "loclaity";  // typo must not fall back silently
  try {
    core::ClusterRuntime rt(cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("loclaity"), std::string::npos) << msg;
    EXPECT_NE(msg.find("locality"), std::string::npos) << msg;
    EXPECT_NE(msg.find("congestion"), std::string::npos) << msg;
    EXPECT_NE(msg.find("waittime"), std::string::npos) << msg;
    EXPECT_NE(msg.find("adaptive"), std::string::npos) << msg;
    EXPECT_NE(msg.find("hier"), std::string::npos) << msg;
  }
}

// --- feedback policies --------------------------------------------------------

// On an oversubscribed fat-tree with heavy per-task input data the
// congestion policy must actually deviate from the locality baseline
// (steer around or suppress into saturated uplinks).
TEST(CongestionPolicy, DeviatesFromBaselineOnSaturatedFatTree) {
  core::RuntimeConfig cfg;
  cfg.cluster = sim::ClusterSpec::homogeneous(8, 4);
  cfg.appranks_per_node = 1;
  cfg.degree = 3;
  cfg.policy = core::PolicyKind::Global;
  cfg.global_period = 0.2;
  cfg.local_period = 0.05;
  cfg.net.enabled = true;
  cfg.net.leaf_radix = 2;
  cfg.net.spines = 1;
  cfg.net.uplink_bandwidth = 2e8;  // 4:1-ish oversubscription
  cfg.sched.policy = "congestion";

  apps::SyntheticConfig scfg;
  scfg.appranks = 8;
  scfg.iterations = 3;
  scfg.tasks_per_rank = 40;
  scfg.imbalance = 2.5;
  scfg.bytes_per_task = 4 << 20;
  apps::SyntheticWorkload wl(scfg);
  core::ClusterRuntime rt(cfg);
  const auto r = rt.run(wl);

  EXPECT_EQ(r.sched_policy, "congestion");
  EXPECT_GT(r.sched.decisions, 0u);
  EXPECT_GT(r.sched.offloads_considered, 0u);
  EXPECT_GT(r.sched.offloads_steered + r.sched.offloads_suppressed, 0u)
      << "congestion policy never deviated from the locality baseline "
         "despite a saturated fat-tree";
  EXPECT_GT(r.tasks_total, 0u);
}

// Under imbalance, tasks burst-ready while the wait EWMA is still near
// zero: the waittime policy must initially suppress remote offloads and
// offload less than the locality baseline overall.
TEST(WaittimePolicy, SuppressesOffloadsWhileWaitsAreShort) {
  core::RuntimeConfig cfg = plain_config();
  apps::SyntheticWorkload wl_base(plain_workload());
  core::ClusterRuntime base_rt(cfg);
  const auto base = base_rt.run(wl_base);

  cfg.sched.policy = "waittime";
  apps::SyntheticWorkload wl(plain_workload());
  core::ClusterRuntime rt(cfg);
  const auto r = rt.run(wl);

  EXPECT_EQ(r.sched_policy, "waittime");
  EXPECT_GT(r.sched.offloads_suppressed, 0u);
  // Suppression defers to pull-based stealing rather than forbidding
  // offloads outright, so the total offload count may drift either way —
  // but every task must still complete exactly once.
  EXPECT_EQ(r.tasks_total, base.tasks_total);
  EXPECT_GT(base.tasks_offloaded, 0u);
}

// --- reporting ----------------------------------------------------------------

TEST(SchedReport, FormatsCountersWithPercentages) {
  sched::SchedStats stats;
  stats.decisions = 100;
  stats.offloads_considered = 50;
  stats.offloads_steered = 10;
  stats.offloads_suppressed = 5;
  const std::string report = dlb::sched_report("congestion", stats);
  EXPECT_NE(report.find("policy: congestion"), std::string::npos) << report;
  EXPECT_NE(report.find("victim selections"), std::string::npos);
  EXPECT_NE(report.find("100"), std::string::npos);
  EXPECT_NE(report.find("offloads steered"), std::string::npos);
  EXPECT_NE(report.find("20.0%"), std::string::npos) << report;
  EXPECT_NE(report.find("10.0%"), std::string::npos) << report;
}

TEST(SchedReport, ZeroConsideredDoesNotDivide) {
  const std::string report = dlb::sched_report("locality", {});
  EXPECT_NE(report.find("policy: locality"), std::string::npos);
  EXPECT_NE(report.find("0.0%"), std::string::npos);
}

// --- wait-estimate decay ------------------------------------------------------

// Regression: a helper that was busy, went idle for many half-lives, and
// then turns bursty again must not be judged by its stale busy-phase
// estimate — the decayed value reads near zero and the first fresh sample
// dominates the blend.
TEST(DecayEwma, IdleThenBurstyIsNotJudgedByStaleSamples) {
  sched::DecayEwma e;
  double now = 0.0;
  for (int i = 0; i < 10; ++i) {
    e.observe(0.2, now, 0.7, 0.5);
    now += 0.01;
  }
  const double busy = e.read(now, 0.5);
  EXPECT_GT(busy, 0.05);

  // 10 s idle = 20 half-lives: the estimate must have melted away.
  now += 10.0;
  const double idle = e.read(now, 0.5);
  EXPECT_LT(idle, 1e-6);
  // read() is pure: it must not mutate the stored value.
  EXPECT_DOUBLE_EQ(e.read(now, 0.5), idle);

  // Bursty again: the new sample dominates (blend of ~0 decayed estimate
  // and the fresh observation), instead of resuming from the busy phase.
  e.observe(0.1, now, 0.7, 0.5);
  EXPECT_NEAR(e.read(now, 0.5), 0.3 * 0.1, 0.005);
}

// --- adaptive portfolio: explore/exploit with hysteresis ----------------------

// Pressure-injectable portfolio: the virtual fabric probe is replaced by
// a settable value so the switching logic is tested in isolation.
class TestAdaptive final : public sched::AdaptiveScheduler {
 public:
  using sched::AdaptiveScheduler::AdaptiveScheduler;
  double pressure = 0.0;

 protected:
  [[nodiscard]] double sampled_pressure(const nanos::Task&) override {
    return pressure;
  }
};

using AMode = sched::AdaptiveScheduler::Mode;

// Picks at the fastest pace drive() uses (0.005 simulated seconds each)
// that span at least `windows` probe windows.
int picks_for(std::uint64_t windows) {
  return static_cast<int>(static_cast<double>(windows) *
                          sched::AdaptiveScheduler::kWindow / 0.005);
}

// Enough picks for one explore cycle (one scored window per mode) plus an
// exploit phase past the minimum dwell, with windows to spare.
const int kSettle = picks_for(3 + sched::AdaptiveScheduler::kDwell + 4);

// Drives `picks` victim selections. The simulated clock advances by
// dt_of(active mode) per pick and every pick reports one task start with
// the given wait — so a mode's measured throughput is 1/dt and the
// portfolio must measure its way to whichever mode dt_of favours.
void drive(TestAdaptive& s, FakeView& view, int picks,
           double (*dt_of)(AMode), double wait = 0.01) {
  nanos::Task t;
  t.apprank = 0;
  const core::WorkerId hw = view.topology().home_worker(0);
  for (int i = 0; i < picks; ++i) {
    (void)s.pick(t);
    view.now_ += dt_of(s.mode());
    s.on_task_started(t, hw, wait);
  }
}

TEST(AdaptivePolicy, ElectsTheModeWithHighestMeasuredThroughput) {
  FakeView view;
  TestAdaptive s(view);
  EXPECT_TRUE(s.exploring());
  EXPECT_EQ(s.mode(), AMode::Locality);

  // Congestion mode measurably starts tasks 2x faster. The picks cover
  // the full explore cycle and an exploit phase past the minimum dwell,
  // where steady signals must not trigger a re-exploration.
  drive(s, view, kSettle, [](AMode m) {
    return m == AMode::Congestion ? 0.005 : 0.01;
  });
  EXPECT_FALSE(s.exploring());
  EXPECT_EQ(s.incumbent(), AMode::Congestion);
  EXPECT_EQ(s.mode(), AMode::Congestion);
  // Probe cycle visited all three modes: locality->congestion->waittime,
  // then back to the winner.
  EXPECT_EQ(s.switches(), 3u);
  EXPECT_GT(s.decisions_in(AMode::Locality), 0u);
  EXPECT_GT(s.decisions_in(AMode::Waittime), 0u);
  EXPECT_GT(s.probe_rate(AMode::Congestion), s.probe_rate(AMode::Locality));
}

TEST(AdaptivePolicy, PressureOscillationInsideDeadBandNeverFlaps) {
  FakeView view;
  TestAdaptive s(view);
  drive(s, view, kSettle, [](AMode m) {
    return m == AMode::Congestion ? 0.005 : 0.01;
  });
  ASSERT_FALSE(s.exploring());
  const std::uint64_t settled = s.switches();

  // Pressure bouncing inside [low, high) plus steady waits and rates:
  // many windows later (the dwell long past) the portfolio must still be
  // exploiting the same incumbent.
  nanos::Task t;
  t.apprank = 0;
  const core::WorkerId hw = view.topology().home_worker(0);
  for (int i = 0; i < picks_for(sched::AdaptiveScheduler::kDwell); ++i) {
    s.pressure = (i % 2 == 0) ? 0.30 : 0.45;
    (void)s.pick(t);
    view.now_ += 0.005;
    s.on_task_started(t, hw, 0.01);
  }
  EXPECT_FALSE(s.exploring());
  EXPECT_EQ(s.mode(), AMode::Congestion);
  EXPECT_EQ(s.switches(), settled);
}

TEST(AdaptivePolicy, PressureRegimeCrossingTriggersReExploration) {
  FakeView view;
  TestAdaptive s(view);
  s.pressure = 0.0;  // latches the low regime during the first election
  drive(s, view, kSettle, [](AMode m) {
    return m == AMode::Congestion ? 0.005 : 0.01;
  });
  ASSERT_EQ(s.incumbent(), AMode::Congestion);

  // Crossing the high threshold is a regime change: after the minimum
  // dwell the portfolio re-explores and elects the new best mode.
  s.pressure = 0.90;
  drive(s, view, kSettle, [](AMode m) {
    return m == AMode::Waittime ? 0.005 : 0.01;
  });
  EXPECT_FALSE(s.exploring());
  EXPECT_EQ(s.incumbent(), AMode::Waittime);
}

TEST(AdaptivePolicy, WaitDriftTriggersReExploration) {
  FakeView view;
  TestAdaptive s(view);
  drive(s, view, kSettle, [](AMode m) {
    return m == AMode::Congestion ? 0.005 : 0.01;
  });
  ASSERT_EQ(s.incumbent(), AMode::Congestion);

  // The incumbent's observed waits blow past kWaitExit x the wait
  // measured at election: the portfolio must notice, re-measure, and
  // elect whichever mode now performs best.
  drive(s, view, kSettle, [](AMode m) {
    return m == AMode::Locality ? 0.005 : 0.01;
  }, 1.0);
  EXPECT_EQ(s.incumbent(), AMode::Locality);
}

TEST(AdaptivePolicy, EquivalentModesKeepTheIncumbent) {
  FakeView view;
  TestAdaptive s(view);
  // All modes measure identical throughput: the election margin keeps
  // the incumbent (locality, the starting default) — no switch on ties.
  drive(s, view, kSettle, [](AMode) { return 0.01; });
  EXPECT_FALSE(s.exploring());
  EXPECT_EQ(s.incumbent(), AMode::Locality);
  EXPECT_EQ(s.mode(), AMode::Locality);
}

// Drives the explore cycle under heavy observed waits until the probe
// advances into the waittime window, *without* folding any observation
// in after the switch. Returns false if the probe never got there.
bool drive_into_waittime_probe(TestAdaptive& s, FakeView& view) {
  nanos::Task t;
  t.apprank = 0;
  const core::WorkerId hw = view.topology().home_worker(0);
  for (int i = 0; i < picks_for(4); ++i) {
    (void)s.pick(t);
    if (s.mode() == AMode::Waittime) return true;
    view.now_ += 0.01;
    // Heavy waits: the always-warm forwarding runs every estimator hot
    // before the waittime probe opens.
    s.on_task_started(t, hw, 0.5);
  }
  return false;
}

// Regression for the adaptive portfolio's cold probe: the waittime probe
// must open on *cold* estimates. With the always-warm carryover the probe
// inherits the previous modes' 0.5 s waits, suppression never engages,
// and the window measures locality-with-extra-steps instead of the
// mode's own suppress -> low-waits equilibrium.
TEST(AdaptivePolicy, WaittimeProbeOpensCold) {
  FakeView view;
  TestAdaptive s(view);
  ASSERT_TRUE(drive_into_waittime_probe(s, view));
  // Entering the probe reset the estimator: nothing observed yet, so the
  // estimate reads exactly "never waited" — well under kWaitOffloadMin,
  // where the mode's suppression fixed point is reachable.
  EXPECT_EQ(s.waittime().wait_estimate(0), 0.0);
  EXPECT_LT(s.waittime().wait_estimate(0), sched::kWaitOffloadMin);
}

}  // namespace
