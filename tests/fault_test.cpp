// Tests of the fault-injection subsystem (tlb::fault): perturbation plans,
// resilience of the runtime to slowdowns and crashes, the no-op identity of
// zero-magnitude faults, and single-seed determinism of perturbed runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "apps/synthetic.hpp"
#include "core/runtime.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "metrics/imbalance.hpp"
#include "metrics/recovery.hpp"

namespace tlb {
namespace {

core::RuntimeConfig fault_cluster(int nodes, int cores, int degree) {
  core::RuntimeConfig cfg;
  cfg.cluster = sim::ClusterSpec::homogeneous(nodes, cores);
  cfg.appranks_per_node = 1;
  cfg.degree = degree;
  cfg.policy = core::PolicyKind::Global;
  return cfg;
}

apps::SyntheticConfig synth(int appranks, int iterations, int tasks,
                            double imbalance) {
  apps::SyntheticConfig scfg;
  scfg.appranks = appranks;
  scfg.iterations = iterations;
  scfg.tasks_per_rank = tasks;
  scfg.imbalance = imbalance;
  return scfg;
}

std::vector<trace::StepSeries> busy_rows(const core::ClusterRuntime& rt) {
  std::vector<trace::StepSeries> rows;
  for (int n = 0; n < rt.topology().node_count(); ++n) {
    rows.push_back(rt.recorder().node_busy(n));
  }
  return rows;
}

TEST(FaultPlan, ValidateRejectsMalformedPlans) {
  EXPECT_THROW(
      [] {
        fault::FaultPlan p;
        p.slow_node(0, 0.0, 1.0);  // factor must be positive
        p.validate();
      }(),
      std::invalid_argument);
  EXPECT_THROW(
      [] {
        fault::FaultPlan p;
        p.lose_messages(1.0, 1.0);  // certain loss would never deliver
        p.validate();
      }(),
      std::invalid_argument);
  EXPECT_THROW(
      [] {
        fault::FaultPlan p;
        p.degrade_link(2.0, 0.5, 0.0, /*at=*/5.0, /*until=*/1.0);
        p.validate();
      }(),
      std::invalid_argument);
  fault::FaultPlan ok;
  ok.slow_node(1, 1.0 / 3.0, 2.0, 6.0).lose_messages(0.1, 0.0, 1.0);
  EXPECT_NO_THROW(ok.validate());
  EXPECT_EQ(ok.events().size(), 2u);
}

// Acceptance (a): a mid-run 3x node slowdown is re-balanced by the global
// policy — the node imbalance re-converges below 1.1 within a bounded
// number of solver periods.
TEST(Fault, SlowdownReconverges) {
  core::RuntimeConfig cfg = fault_cluster(4, 16, 3);
  cfg.global_period = 1.0;
  const double inject_at = 3.0;

  apps::SyntheticWorkload wl(synth(4, 16, 240, 1.0));
  core::ClusterRuntime rt(cfg);
  fault::FaultInjector injector(
      fault::FaultPlan().slow_node(/*node=*/0, 1.0 / 3.0, inject_at));
  injector.attach(rt);
  const auto r = rt.run(wl);

  const auto& marks = rt.recorder().marks();
  ASSERT_EQ(std::count_if(marks.begin(), marks.end(),
                          [](const trace::Mark& m) {
                            return m.kind == trace::MarkKind::FaultInjected;
                          }),
            1);

  // Analyse up to just before the end-of-run drain (the final iteration's
  // wind-down leaves only stragglers busy, which is not imbalance), with
  // bins of roughly one iteration so intra-iteration barrier drains do not
  // register as imbalance.
  const double horizon = r.makespan * 0.95;
  const auto reports = metrics::recovery_reports(marks, busy_rows(rt), 0.0,
                                                 horizon, 12, 1.10, 2);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_GE(reports[0].reconverge_time, 0.0) << "never re-converged";
  EXPECT_LE(reports[0].reconverge_time, 6.0 * cfg.global_period);
  EXPECT_GT(reports[0].goodput_lost, 0.0);
}

// Acceptance (b): when a helper crashes, its queued/running offloaded
// tasks are detected lost and re-executed exactly once elsewhere, and the
// iteration still completes.
TEST(Fault, CrashedHelperTasksReexecutedOnce) {
  core::RuntimeConfig cfg = fault_cluster(4, 16, 3);
  const apps::SyntheticConfig scfg = synth(4, 8, 240, 2.5);

  apps::SyntheticWorkload wl_clean(scfg);
  const auto clean = core::ClusterRuntime(cfg).run(wl_clean);

  apps::SyntheticWorkload wl(scfg);
  core::ClusterRuntime rt(cfg);
  // Crash a helper of the overloaded apprank mid-run: it will be running
  // offloaded tasks at that point.
  const core::WorkerId victim = rt.topology().workers_of_apprank(0)[1];
  ASSERT_FALSE(rt.topology().worker(victim).is_home);
  fault::FaultInjector injector(
      fault::FaultPlan().crash_worker(victim, clean.makespan * 0.45));
  injector.attach(rt);
  std::uint64_t reexec_total = 0;
  rt.observe_retired_tasks([&](const nanos::Task& t) {
    EXPECT_LE(t.reexecutions, 1) << "task " << t.id << " rescued twice";
    EXPECT_EQ(t.executions, 1 + t.reexecutions)
        << "task " << t.id << ": every task runs once, plus once per rescue";
    if (t.reexecutions > 0) {
      EXPECT_NE(t.executed_worker, victim)
          << "rescued task " << t.id << " landed back on the crashed worker";
    }
    reexec_total += static_cast<std::uint64_t>(t.reexecutions);
  });
  const auto r = rt.run(wl);

  EXPECT_EQ(r.workers_crashed, 1u);
  EXPECT_FALSE(rt.worker_alive(victim));
  EXPECT_GT(r.tasks_reexecuted, 0u);
  EXPECT_EQ(r.iteration_times.size(), static_cast<std::size_t>(scfg.iterations));
  EXPECT_EQ(r.tasks_not_exactly_once, 0u);
  EXPECT_EQ(reexec_total, r.tasks_reexecuted);
}

// Acceptance (c): a plan whose faults have zero magnitude (speed factor
// 1.0, link multipliers 1.0, loss rate 0) leaves the simulated execution
// bit-identical to a run without the fault subsystem. (Only the injector's
// own timer events differ, which affects the diagnostic event counter.)
TEST(Fault, ZeroMagnitudeFaultsAreBitIdentical) {
  core::RuntimeConfig cfg = fault_cluster(4, 8, 2);
  const apps::SyntheticConfig scfg = synth(4, 6, 120, 2.0);

  apps::SyntheticWorkload wl_a(scfg);
  core::ClusterRuntime rt_a(cfg);
  const auto a = rt_a.run(wl_a);

  apps::SyntheticWorkload wl_b(scfg);
  core::ClusterRuntime rt_b(cfg);
  fault::FaultInjector injector(fault::FaultPlan()
                                    .slow_node(0, 1.0, 0.5, 2.0)
                                    .degrade_link(1.0, 1.0, 0.0, 0.5, 2.0)
                                    .lose_messages(0.0, 0.5, 2.0));
  injector.attach(rt_b);
  const auto b = rt_b.run(wl_b);

  EXPECT_EQ(a.makespan, b.makespan);  // bitwise
  EXPECT_EQ(a.iteration_times, b.iteration_times);
  EXPECT_EQ(a.tasks_offloaded, b.tasks_offloaded);
  EXPECT_EQ(a.transfer_bytes, b.transfer_bytes);
  EXPECT_EQ(a.control_messages, b.control_messages);
  EXPECT_EQ(a.lewi_lends, b.lewi_lends);
  EXPECT_EQ(a.lewi_borrows, b.lewi_borrows);
  EXPECT_EQ(a.drom_moves, b.drom_moves);
  EXPECT_EQ(b.retransmissions, 0u);
  EXPECT_EQ(b.tasks_reexecuted, 0u);
  for (int n = 0; n < rt_a.topology().node_count(); ++n) {
    EXPECT_EQ(rt_a.recorder().node_busy(n).points(),
              rt_b.recorder().node_busy(n).points())
        << "node " << n << " busy trace diverged";
  }
}

// Satellite: a run is a pure function of RuntimeConfig::seed — two
// identical executions (including stochastic faults: message loss, jitter,
// a crash) produce identical results and identical traces.
TEST(Fault, SeededRunsAreDeterministic) {
  auto run_once = [](core::ClusterRuntime& rt) {
    apps::SyntheticWorkload wl(synth(4, 6, 120, 2.0));
    fault::FaultInjector injector(
        fault::FaultPlan()
            .lose_messages(0.10, 0.5, 2.5)
            .degrade_link(2.0, 0.5, 1e-5, 1.0, 3.0)
            .crash_worker(rt.topology().workers_of_apprank(0)[1], 1.5));
    injector.attach(rt);
    return rt.run(wl);
  };
  const core::RuntimeConfig cfg = fault_cluster(4, 8, 2);
  core::ClusterRuntime rt_a(cfg);
  core::ClusterRuntime rt_b(cfg);
  const auto a = run_once(rt_a);
  const auto b = run_once(rt_b);

  EXPECT_EQ(a.makespan, b.makespan);  // bitwise
  EXPECT_EQ(a.iteration_times, b.iteration_times);
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.tasks_reexecuted, b.tasks_reexecuted);
  EXPECT_GT(a.retransmissions, 0u);  // the loss window did bite
  EXPECT_EQ(rt_a.recorder().marks(), rt_b.recorder().marks());
  for (int n = 0; n < rt_a.topology().node_count(); ++n) {
    EXPECT_EQ(rt_a.recorder().node_busy(n).points(),
              rt_b.recorder().node_busy(n).points());
  }
}

// recovery_reports on hand-built traces: reconvergence is measured from the
// injection mark, goodput loss against the pre-fault rate; marks of other
// kinds are not injections.
TEST(Recovery, AnalyseMeasuresReconvergenceAndGoodput) {
  trace::StepSeries a;
  trace::StepSeries b;
  a.set(0.0, 4.0);
  b.set(0.0, 4.0);
  b.set(5.0, 0.0);   // perturbation knocks node b idle...
  b.set(10.0, 4.0);  // ...for five seconds
  a.set(20.0, 0.0);
  b.set(20.0, 0.0);

  const std::vector<trace::Mark> marks = {
      {2.0, trace::MarkKind::Generic, 0, "phase change"},
      {5.0, trace::MarkKind::FaultInjected, 1, "knock-out"},
      {10.0, trace::MarkKind::Generic, 0, "knock-out recovered"},
  };
  const std::vector<trace::StepSeries> nodes{a, b};
  const auto reports =
      metrics::recovery_reports(marks, nodes, 0.0, 20.0, 30, 1.10, 2);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].label, "knock-out");
  EXPECT_NEAR(reports[0].reconverge_time, 5.0, 0.6);  // one bin of slack
  EXPECT_NEAR(reports[0].goodput_lost, 20.0, 1e-6);   // 4 cores x 5 s
}

}  // namespace
}  // namespace tlb
