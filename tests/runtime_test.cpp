// End-to-end tests of the ClusterRuntime on small clusters.
#include <string_view>

#include <gtest/gtest.h>

#include "apps/synthetic.hpp"
#include "core/runtime.hpp"
#include "fingerprint.hpp"
#include "prof/prof.hpp"

namespace tlb::core {
namespace {

RuntimeConfig base_config(int nodes, int cores, int per_node, int degree) {
  RuntimeConfig cfg;
  cfg.cluster = sim::ClusterSpec::homogeneous(nodes, cores);
  cfg.appranks_per_node = per_node;
  cfg.degree = degree;
  cfg.policy = PolicyKind::Global;
  cfg.lewi = true;
  cfg.drom = true;
  cfg.global_period = 0.2;  // fast convergence for small tests
  cfg.local_period = 0.05;
  return cfg;
}

apps::SyntheticConfig synth(int appranks, double imbalance, int iterations,
                            int tasks = 40) {
  apps::SyntheticConfig cfg;
  cfg.appranks = appranks;
  cfg.imbalance = imbalance;
  cfg.iterations = iterations;
  cfg.tasks_per_rank = tasks;
  return cfg;
}

TEST(Runtime, SingleApprankUsesAllCores) {
  auto cfg = base_config(1, 4, 1, 1);
  apps::SyntheticWorkload wl(synth(1, 1.0, 2));
  ClusterRuntime rt(cfg);
  const auto r = rt.run(wl);
  // 40 tasks x 50 ms on 4 cores = 0.5 s per iteration; allow scheduling
  // slack from non-divisible task ends.
  EXPECT_GT(r.makespan, r.perfect_time);
  EXPECT_LT(r.makespan, r.perfect_time * 1.25);
  EXPECT_EQ(r.tasks_total, 80u);
  EXPECT_EQ(r.tasks_offloaded, 0u);
  EXPECT_EQ(static_cast<int>(r.iteration_times.size()), 2);
}

TEST(Runtime, BaselineConfinesImbalanceToApprank) {
  // No DLB at all: the heavy rank's cores bound the makespan.
  auto cfg = base_config(1, 8, 2, 1);
  cfg.lewi = false;
  cfg.drom = false;
  cfg.policy = PolicyKind::None;
  apps::SyntheticWorkload wl(synth(2, 1.5, 2));
  ClusterRuntime rt(cfg);
  const auto r = rt.run(wl);
  // Heavy rank: 40 x 75 ms on its 4 cores = 0.75 s/iter.
  EXPECT_GT(r.makespan, 2 * 0.70);
  EXPECT_EQ(r.tasks_offloaded, 0u);
  EXPECT_EQ(r.lewi_lends, 0u);
  EXPECT_EQ(r.drom_moves, 0u);
}

TEST(Runtime, LewiBalancesWithinNode) {
  auto cfg_base = base_config(1, 8, 2, 1);
  cfg_base.lewi = false;
  cfg_base.drom = false;
  cfg_base.policy = PolicyKind::None;
  apps::SyntheticWorkload wl1(synth(2, 1.5, 2));
  const auto base = ClusterRuntime(cfg_base).run(wl1);

  auto cfg_lewi = base_config(1, 8, 2, 1);
  cfg_lewi.drom = false;
  cfg_lewi.policy = PolicyKind::None;
  apps::SyntheticWorkload wl2(synth(2, 1.5, 2));
  const auto lewi = ClusterRuntime(cfg_lewi).run(wl2);

  EXPECT_LT(lewi.makespan, base.makespan * 0.92);
  EXPECT_GT(lewi.lewi_borrows, 0u);
  // LeWI alone does not offload across nodes (there is only one node).
  EXPECT_EQ(lewi.tasks_offloaded, 0u);
}

TEST(Runtime, OffloadingBalancesAcrossNodes) {
  apps::SyntheticWorkload wl1(synth(4, 2.0, 4));
  auto cfg1 = base_config(4, 4, 1, 1);
  const auto degree1 = ClusterRuntime(cfg1).run(wl1);

  apps::SyntheticWorkload wl4(synth(4, 2.0, 4));
  auto cfg4 = base_config(4, 4, 1, 4);
  const auto degree4 = ClusterRuntime(cfg4).run(wl4);

  EXPECT_LT(degree4.makespan, degree1.makespan * 0.8);
  EXPECT_GT(degree4.tasks_offloaded, 0u);
  EXPECT_GT(degree4.control_messages, 0u);
  EXPECT_GT(degree4.transfer_bytes, 0u);
}

TEST(Runtime, BalancedLoadBarelyOffloadsUnderGlobalPolicy) {
  // With balanced load, steady-state offloading is bounded by the
  // helper-core floor (each helper owns 1 of 16 cores) plus LeWI
  // tail-balancing at iteration ends, and stays far below the ~50%
  // offload a fully spread execution would show.
  apps::SyntheticWorkload wl(synth(4, 1.0, 4, /*tasks=*/160));
  auto cfg = base_config(4, 16, 1, 2);
  const auto r = ClusterRuntime(cfg).run(wl);
  EXPECT_LT(r.offload_fraction(), 0.20);
  EXPECT_LT(r.makespan, r.perfect_time * 1.3);
}

TEST(Runtime, NonOffloadableTasksStayHome) {
  // A workload of only non-offloadable tasks on an imbalanced system must
  // execute everything on home nodes despite the helpers.
  class PinnedWorkload final : public Workload {
   public:
    int iteration_count() const override { return 2; }
    std::vector<TaskSpec> make_tasks(int apprank, int) override {
      std::vector<TaskSpec> specs;
      const int n = apprank == 0 ? 20 : 2;
      for (int i = 0; i < n; ++i) {
        TaskSpec s;
        s.work = 0.05;
        s.offloadable = false;
        specs.push_back(s);
      }
      return specs;
    }
  };
  PinnedWorkload wl;
  auto cfg = base_config(2, 4, 1, 2);
  const auto r = ClusterRuntime(cfg).run(wl);
  EXPECT_EQ(r.tasks_offloaded, 0u);
}

TEST(Runtime, DeterministicAcrossRuns) {
  auto run_once = [] {
    apps::SyntheticWorkload wl(synth(8, 1.8, 3));
    auto cfg = base_config(4, 8, 2, 3);
    return ClusterRuntime(cfg).run(wl).makespan;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(Runtime, PerfectTimeIsALowerBound) {
  for (double imb : {1.0, 1.5, 2.5}) {
    apps::SyntheticWorkload wl(synth(4, imb, 2));
    auto cfg = base_config(4, 4, 1, 2);
    const auto r = ClusterRuntime(cfg).run(wl);
    EXPECT_GE(r.makespan, r.perfect_time * 0.999) << "imb=" << imb;
  }
}

TEST(Runtime, SlowNodeStretchesBaseline) {
  apps::SyntheticWorkload wl1(synth(2, 1.0, 2));
  auto cfg = base_config(2, 4, 1, 1);
  cfg.cluster = sim::ClusterSpec::with_slow_node(2, 4, 0, 0.5);
  cfg.lewi = false;
  cfg.drom = false;
  cfg.policy = PolicyKind::None;
  const auto slow = ClusterRuntime(cfg).run(wl1);
  // Rank 0's tasks all run at half speed: ~2x the balanced time.
  apps::SyntheticWorkload wl2(synth(2, 1.0, 2));
  auto cfg_fast = base_config(2, 4, 1, 1);
  cfg_fast.lewi = false;
  cfg_fast.drom = false;
  cfg_fast.policy = PolicyKind::None;
  const auto fast = ClusterRuntime(cfg_fast).run(wl2);
  EXPECT_GT(slow.makespan, fast.makespan * 1.6);
}

TEST(Runtime, OffloadingRescuesSlowNode) {
  auto make_cfg = [](int degree) {
    auto cfg = base_config(2, 8, 1, degree);
    cfg.cluster = sim::ClusterSpec::with_slow_node(2, 8, 0, 0.5);
    return cfg;
  };
  apps::SyntheticWorkload wl1(synth(2, 1.0, 6));
  const auto stuck = ClusterRuntime(make_cfg(1)).run(wl1);
  apps::SyntheticWorkload wl2(synth(2, 1.0, 6));
  const auto rescued = ClusterRuntime(make_cfg(2)).run(wl2);
  EXPECT_LT(rescued.makespan, stuck.makespan * 0.9);
  EXPECT_GT(rescued.tasks_offloaded, 0u);
}

TEST(Runtime, HelperWorkersAlwaysKeepOneCore) {
  apps::SyntheticWorkload wl(synth(4, 2.5, 4));
  auto cfg = base_config(4, 6, 1, 3);
  ClusterRuntime rt(cfg);
  const auto r = rt.run(wl);
  (void)r;
  const auto& topo = rt.topology();
  const auto& rec = rt.recorder();
  for (int n = 0; n < topo.node_count(); ++n) {
    for (WorkerId w : topo.workers_on_node(n)) {
      const auto& series = rec.owned(n, topo.worker(w).apprank);
      EXPECT_GE(series.value_at(r.makespan), 1.0);
    }
  }
}

TEST(Runtime, LocalPolicyOverOffloadsAfterRebalance) {
  // Fig 5: unbalanced phase then balanced phase. The local policy keeps
  // offloading in the balanced phase (ownership has drifted); the global
  // policy pulls ownership home and stops offloading.
  class TwoPhaseWorkload final : public Workload {
   public:
    int iteration_count() const override { return 20; }
    std::vector<TaskSpec> make_tasks(int apprank, int iteration) override {
      std::vector<TaskSpec> specs;
      const bool unbalanced = iteration < 10;
      const int n = unbalanced ? (apprank == 0 ? 300 : 4) : 150;
      for (int i = 0; i < n; ++i) {
        TaskSpec s;
        s.work = 0.05;
        specs.push_back(s);
      }
      return specs;
    }
  };
  // Returns (run stats, apprank 0's final core ownership on node 1).
  auto run_policy = [](PolicyKind kind) {
    TwoPhaseWorkload wl;
    RuntimeConfig cfg;
    cfg.cluster = sim::ClusterSpec::homogeneous(2, 48);
    cfg.appranks_per_node = 1;
    cfg.degree = 2;
    cfg.policy = kind;
    cfg.global_period = 0.2;
    cfg.local_period = 0.05;
    ClusterRuntime rt(cfg);
    const auto r = rt.run(wl);
    const double remote_owned =
        rt.recorder().owned(1, 0).value_at(r.makespan);
    return std::pair{r, remote_owned};
  };
  const auto [local, local_remote] = run_policy(PolicyKind::Local);
  const auto [global, global_remote] = run_policy(PolicyKind::Global);
  // Both balance the unbalanced phase...
  EXPECT_GT(local.tasks_offloaded, 0u);
  EXPECT_GT(global.tasks_offloaded, 0u);
  // ...but after the load becomes balanced, the global policy pulls
  // ownership back home (helper floor) while the local policy converges
  // to mixed ownership and keeps offloading (Fig 5a vs 5b).
  EXPECT_LE(global_remote, 6.0);
  EXPECT_GE(local_remote, 10.0);
  EXPECT_GT(local_remote, 1.5 * global_remote);
}

TEST(Runtime, IterationTimesSumToMakespan) {
  apps::SyntheticWorkload wl(synth(2, 1.2, 3));
  auto cfg = base_config(2, 4, 1, 2);
  const auto r = ClusterRuntime(cfg).run(wl);
  double sum = 0.0;
  for (double t : r.iteration_times) sum += t;
  EXPECT_NEAR(sum, r.makespan, 1e-9);
}

TEST(Runtime, RecorderBusyNeverExceedsNodeCores) {
  apps::SyntheticWorkload wl(synth(4, 1.6, 3));
  auto cfg = base_config(2, 4, 2, 2);
  ClusterRuntime rt(cfg);
  const auto r = rt.run(wl);
  for (int n = 0; n < 2; ++n) {
    EXPECT_LE(rt.recorder().node_busy(n).max_value(), 4.0);
  }
  (void)r;
}

TEST(Runtime, RecordTracesOffDropsSeriesOnly) {
  // The busy / owned / node-busy series are record-only: turning them off
  // leaves the schedule, the timeline marks and the offload statistics
  // untouched, and every series empty. Both runs are profiled: the series
  // storage is charged to trace.series, and with series off nothing is.
  struct ProfilerOff {
    ~ProfilerOff() {
      prof::Profiler::instance().disable();
      prof::Profiler::instance().reset();
    }
  } profiler_off;
  auto series_tag = [] {
    for (const prof::TagStats& t : prof::Profiler::instance().alloc_stats()) {
      if (std::string_view(t.tag) == "trace.series") return t;
    }
    ADD_FAILURE() << "no trace.series tag";
    return prof::TagStats{};
  };
  auto cfg = base_config(2, 4, 2, 2);
  cfg.prof.enabled = true;
  prof::Profiler::instance().reset();
  apps::SyntheticWorkload wl_on(synth(4, 1.6, 3));
  ClusterRuntime on(cfg);
  const auto r_on = on.run(wl_on);
  EXPECT_GT(series_tag().peak_bytes, 0);

  prof::Profiler::instance().reset();
  cfg.record_traces = false;
  apps::SyntheticWorkload wl_off(synth(4, 1.6, 3));
  ClusterRuntime off(cfg);
  const auto r_off = off.run(wl_off);
  EXPECT_EQ(series_tag().allocs, 0u);
  EXPECT_EQ(series_tag().peak_bytes, 0);

  EXPECT_EQ(schedule_fingerprint(on, r_on), schedule_fingerprint(off, r_off));
  EXPECT_EQ(on.recorder().marks(), off.recorder().marks());
  EXPECT_GT(r_on.tasks_offloaded, 0u);
  EXPECT_EQ(r_on.tasks_offloaded, r_off.tasks_offloaded);
  EXPECT_EQ(r_on.work_offloaded, r_off.work_offloaded);
  for (int n = 0; n < 2; ++n) {
    EXPECT_FALSE(on.recorder().node_busy(n).empty());
    EXPECT_TRUE(off.recorder().node_busy(n).empty());
    for (int a = 0; a < 4; ++a) {
      EXPECT_TRUE(off.recorder().busy(n, a).empty());
      EXPECT_TRUE(off.recorder().owned(n, a).empty());
    }
  }
}

TEST(Runtime, EmptyIterationCompletes) {
  class EmptyWorkload final : public Workload {
   public:
    int iteration_count() const override { return 3; }
    std::vector<TaskSpec> make_tasks(int, int) override { return {}; }
  };
  EmptyWorkload wl;
  auto cfg = base_config(2, 4, 1, 2);
  const auto r = ClusterRuntime(cfg).run(wl);
  EXPECT_EQ(r.tasks_total, 0u);
  EXPECT_EQ(static_cast<int>(r.iteration_times.size()), 3);
  EXPECT_LT(r.makespan, 1e-3);  // only barrier latencies
}

}  // namespace
}  // namespace tlb::core
