// Randomized nightly fault sweep (ctest label: resil_sweep).
//
// Generates a batch of random fault scenarios — crashes, slowdowns, link
// degradation, message loss — against heartbeat-mode runs and checks the
// resilience invariants that must hold for *any* schedule of injections:
// every task finishes exactly once at the home runtime, no leases or
// pending offloads survive the run, the iteration count is exact, and the
// counters stay mutually consistent.
//
// A second draw randomizes the config space itself (fabric on/off,
// detection mode, one fault, scheduling and DROM policy, cluster shape) and
// checks the invariants of config_sweep.hpp: exactly-once completion, exact
// iteration count, non-negative iteration times, alloc tags back to zero,
// one owner per core, same seed same schedule, and record-only toggles
// leaving the schedule bit-identical. Its pinned counterpart is
// ConfigSweep.* in tlb_tests. A failing draw is shrunk: each switch is
// turned back to its default in turn (fabric, Heartbeat, the fault, the
// sched policy, the DROM policy) and stays off while the draw still fails;
// the minimal scenario is printed.
//
// The scenario seed comes from TLB_RESIL_SWEEP_SEED (CI passes the
// workflow run id); it defaults to 42 and is always logged so any failure
// reproduces with a one-line env var.
#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "apps/synthetic.hpp"
#include "config_sweep.hpp"
#include "core/runtime.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"

namespace tlb {
namespace {

std::uint64_t sweep_seed() {
  if (const char* env = std::getenv("TLB_RESIL_SWEEP_SEED")) {
    return std::stoull(env);
  }
  return 42;
}

struct Scenario {
  core::RuntimeConfig cfg;
  apps::SyntheticConfig app;
  fault::FaultPlan plan;
  std::string describe;
};

/// Draws one random scenario. Crash victims are restricted to helpers so
/// the apprank itself survives; at most one crash per apprank keeps every
/// apprank connected (rewire covers the degree-2 disconnection case).
Scenario draw_scenario(std::mt19937_64& rng) {
  Scenario s;
  std::uniform_int_distribution<int> nodes_d(3, 5);
  std::uniform_int_distribution<int> cores_d(4, 12);
  std::uniform_int_distribution<int> degree_d(2, 3);
  const int nodes = nodes_d(rng);
  s.cfg.cluster = sim::ClusterSpec::homogeneous(nodes, cores_d(rng));
  s.cfg.appranks_per_node = 1;
  s.cfg.degree = std::min(degree_d(rng), nodes - 1);
  s.cfg.policy = (rng() % 2 == 0) ? core::PolicyKind::Global
                                  : core::PolicyKind::Local;
  s.cfg.resil.detection = resil::DetectionMode::Heartbeat;

  std::uniform_int_distribution<int> iters_d(4, 8);
  std::uniform_int_distribution<int> tasks_d(40, 160);
  std::uniform_real_distribution<double> imb_d(1.2, 3.0);
  s.app.appranks = nodes;
  s.app.iterations = iters_d(rng);
  s.app.tasks_per_rank = tasks_d(rng);
  s.app.imbalance = imb_d(rng);

  std::uniform_real_distribution<double> at_d(0.3, 4.0);
  std::uniform_real_distribution<double> dur_d(0.2, 2.0);
  s.describe = "nodes=" + std::to_string(nodes) +
               " degree=" + std::to_string(s.cfg.degree) +
               " tasks=" + std::to_string(s.app.tasks_per_rank);

  // 0-2 crashes on distinct appranks' first helpers.
  const int crashes = static_cast<int>(rng() % 3);
  for (int c = 0; c < crashes; ++c) {
    const int apprank = static_cast<int>(rng() % static_cast<unsigned>(nodes));
    // Helper index 1 always exists (degree >= 2). The plan may name the
    // same victim twice across draws; crash_worker is idempotent.
    const double at = at_d(rng);
    s.plan.crash_worker(-(apprank + 1), at);  // placeholder, fixed below
    s.describe += " crash(apprank=" + std::to_string(apprank) + ")";
  }

  // 0-1 node slowdowns.
  if (rng() % 2 == 0) {
    std::uniform_real_distribution<double> factor_d(0.3, 0.8);
    const double at = at_d(rng);
    s.plan.slow_node(static_cast<int>(rng() % static_cast<unsigned>(nodes)),
                     factor_d(rng), at, at + dur_d(rng));
    s.describe += " slowdown";
  }

  // 0-1 link degradations (latency x2..x50 with jitter).
  if (rng() % 2 == 0) {
    std::uniform_real_distribution<double> mult_d(2.0, 50.0);
    const double at = at_d(rng);
    s.plan.degrade_link(mult_d(rng), 1.0, 1e-6, at, at + dur_d(rng));
    s.describe += " degrade";
  }

  // 0-1 lossy windows (up to 40% per-attempt loss; retransmission covers it).
  if (rng() % 2 == 0) {
    std::uniform_real_distribution<double> rate_d(0.05, 0.4);
    const double at = at_d(rng);
    s.plan.lose_messages(rate_d(rng), at, at + dur_d(rng));
    s.describe += " loss";
  }
  return s;
}

TEST(ResilSweep, RandomFaultScenariosPreserveInvariants) {
  const std::uint64_t seed = sweep_seed();
  // Always log the seed so a nightly failure is a one-liner to reproduce:
  //   TLB_RESIL_SWEEP_SEED=<seed> ./tlb_resil_sweep
  std::printf("[resil_sweep] seed=%llu\n",
              static_cast<unsigned long long>(seed));
  std::mt19937_64 rng(seed);

  constexpr int kScenarios = 12;
  for (int round = 0; round < kScenarios; ++round) {
    Scenario s = draw_scenario(rng);
    core::ClusterRuntime rt(s.cfg);

    // Resolve the crash placeholders now that the topology exists.
    fault::FaultPlan plan;
    for (const auto& ev : s.plan.events()) {
      if (ev.kind == fault::FaultKind::WorkerCrash) {
        const int apprank = -ev.target - 1;
        plan.crash_worker(rt.topology().workers_of_apprank(apprank)[1], ev.at);
      } else if (ev.kind == fault::FaultKind::NodeSlowdown) {
        plan.slow_node(ev.target, ev.factor, ev.at, ev.until);
      } else if (ev.kind == fault::FaultKind::LinkDegrade) {
        plan.degrade_link(ev.link.latency_mult, ev.link.bandwidth_mult,
                          ev.link.jitter_max, ev.at, ev.until);
      } else {
        plan.lose_messages(ev.link.loss_rate, ev.at, ev.until);
      }
    }

    SCOPED_TRACE("round " + std::to_string(round) + ": " + s.describe);
    sweep::watch_ownership(rt);
    apps::SyntheticWorkload wl(s.app);
    fault::FaultInjector injector(std::move(plan));
    injector.attach(rt);
    const core::RunResult r = rt.run(wl);

    // The run terminated with every iteration accounted for (no deadlock;
    // the engine would otherwise have drained early).
    ASSERT_EQ(r.iteration_times.size(),
              static_cast<std::size_t>(s.app.iterations));

    // Zero lost tasks, exactly-once completion accounting.
    ASSERT_EQ(r.tasks_not_exactly_once, 0u);

    // The control plane drained completely.
    EXPECT_EQ(rt.outstanding_leases(), 0u);
    for (int w = 0; w < rt.topology().worker_count(); ++w) {
      EXPECT_EQ(rt.worker_pending(w), 0) << "worker " << w;
      EXPECT_EQ(rt.worker_inflight(w), 0) << "worker " << w;
    }

    // Counter consistency.
    std::uint64_t detected = 0;
    std::uint64_t false_suspected = 0;
    for (const trace::Mark& m : rt.recorder().marks()) {
      if (m.label.rfind("detected crash of worker ", 0) == 0) ++detected;
      if (m.label.rfind("false suspicion of worker ", 0) == 0) {
        ++false_suspected;
      }
    }
    EXPECT_EQ(detected, r.detections);
    EXPECT_EQ(false_suspected, r.false_suspicions);
    EXPECT_GE(r.quarantine_ejections, r.detections + r.false_suspicions);
    EXPECT_LE(r.quarantine_readmissions, r.quarantine_ejections);
    if (r.detections > 0) {
      EXPECT_GT(r.mean_detection_latency(), 0.0);
    }
  }
}

/// Draws one config-space scenario; the fault instants fall inside the
/// run so the fault always bites.
sweep::Scenario draw_config_scenario(std::mt19937_64& rng) {
  sweep::Scenario s;
  s.net = rng() % 2 == 0;
  s.detection = rng() % 2 == 0 ? resil::DetectionMode::Oracle
                               : resil::DetectionMode::Heartbeat;
  s.fault = static_cast<sweep::Fault>(rng() % 3);
  s.sched = sweep::kSchedPolicies[rng() % 5];
  s.policy = rng() % 2 == 0 ? core::PolicyKind::Global
                            : core::PolicyKind::Local;
  std::uniform_int_distribution<int> nodes_d(3, 5);
  std::uniform_int_distribution<int> cores_d(4, 8);
  std::uniform_int_distribution<int> degree_d(2, 3);
  std::uniform_int_distribution<int> tasks_d(24, 64);
  std::uniform_real_distribution<double> imb_d(1.2, 3.0);
  std::uniform_real_distribution<double> at_d(0.1, 1.0);
  std::uniform_real_distribution<double> dur_d(0.2, 1.5);
  std::uniform_real_distribution<double> rate_d(0.05, 0.4);
  std::uniform_real_distribution<double> jitter_d(1e-4, 0.08);
  s.nodes = nodes_d(rng);
  s.cores = cores_d(rng);
  s.degree = std::min(degree_d(rng), s.nodes - 1);
  s.tasks_per_rank = tasks_d(rng);
  s.imbalance = imb_d(rng);
  s.fault_at = at_d(rng);
  s.fault_until = s.fault_at + dur_d(rng);
  s.loss_rate = rate_d(rng);
  s.jitter_max = jitter_d(rng);
  return s;
}

/// True when check_scenario reports any failure for `s`; the failures
/// themselves are swallowed.
bool scenario_fails(const sweep::Scenario& s, const std::string& path) {
  ::testing::TestPartResultArray failures;
  {
    const ::testing::ScopedFakeTestPartResultReporter intercept(
        ::testing::ScopedFakeTestPartResultReporter::
            INTERCEPT_ONLY_CURRENT_THREAD,
        &failures);
    sweep::check_scenario(s, path);
  }
  return failures.size() > 0;
}

/// Turns the switches of a failing `s` back to their defaults one at a
/// time, keeping each change while the scenario still fails.
sweep::Scenario shrink(sweep::Scenario s, const std::string& path) {
  const std::function<void(sweep::Scenario&)> drops[] = {
      [](sweep::Scenario& t) { t.net = false; },
      [](sweep::Scenario& t) { t.detection = resil::DetectionMode::Oracle; },
      [](sweep::Scenario& t) { t.fault = sweep::Fault::None; },
      [](sweep::Scenario& t) { t.sched = sweep::kSchedPolicies[0]; },
      [](sweep::Scenario& t) { t.policy = core::PolicyKind::Global; },
  };
  for (const auto& drop : drops) {
    sweep::Scenario t = s;
    drop(t);
    if (sweep::describe(t) == sweep::describe(s)) continue;  // already off
    if (scenario_fails(t, path)) s = t;
  }
  return s;
}

TEST(ResilSweep, RandomConfigScenariosPreserveInvariants) {
  const std::uint64_t seed = sweep_seed();
  std::printf("[resil_sweep] config seed=%llu\n",
              static_cast<unsigned long long>(seed));
  // A stream of its own, so this draw does not shift the fault draw above.
  std::mt19937_64 rng(seed ^ 0xC0F16u);
  const std::string stream_path = sweep::temp_stream_path("resil_sweep");

  constexpr int kScenarios = 24;
  for (int round = 0; round < kScenarios; ++round) {
    const sweep::Scenario s = draw_config_scenario(rng);
    SCOPED_TRACE("round " + std::to_string(round) + ": " + sweep::describe(s));
    if (!scenario_fails(s, stream_path)) continue;
    std::printf("[resil_sweep] config seed=%llu round %d fails\n",
                static_cast<unsigned long long>(seed), round);
    sweep::check_scenario(s, stream_path);  // report the failures themselves
    const sweep::Scenario minimal = shrink(s, stream_path);
    ADD_FAILURE() << "config seed " << seed << " round " << round
                  << " shrinks to: " << sweep::describe(minimal);
  }
}

}  // namespace
}  // namespace tlb
