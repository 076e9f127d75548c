// Tests of the failure-detection / graceful-degradation layer (tlb::resil):
// phi-accrual detector, task leases with capped backoff, outlier
// quarantine, the Heartbeat-mode protocol (resil::Monitor) against a fake
// host, heartbeat-mode crash recovery with exactly-once completion
// accounting, link-blackout false-suspicion + readmission, the solver
// fallback chain, and expander rewiring after a disconnecting crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "apps/synthetic.hpp"
#include "core/policies.hpp"
#include "core/runtime.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fingerprint.hpp"
#include "resil/lease.hpp"
#include "resil/monitor.hpp"
#include "resil/phi_detector.hpp"
#include "resil/quarantine.hpp"
#include "vmpi/comm.hpp"

namespace tlb {
namespace {

core::RuntimeConfig resil_cluster(int nodes, int cores, int degree) {
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

/// Timeline marks whose label starts with `prefix`.
std::uint64_t count_marks(const core::ClusterRuntime& rt,
                          const std::string& prefix) {
  std::uint64_t n = 0;
  for (const trace::Mark& m : rt.recorder().marks()) {
    if (m.label.rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

/// Invariants every completed heartbeat-mode run must satisfy: every task
/// finished exactly once (zero lost), nothing leased or pending any more,
/// and the iteration count is exactly the configured one. A task may be
/// *attempted* several times (re-queues, zombies), but each extra attempt
/// is accounted as a re-execution or suppressed as a duplicate — never
/// double-counted; the task pool checks that as each task retires.
void expect_all_work_done(const core::ClusterRuntime& rt,
                          const core::RunResult& r, int iterations) {
  EXPECT_EQ(r.iteration_times.size(), static_cast<std::size_t>(iterations));
  EXPECT_EQ(r.tasks_not_exactly_once, 0u);
  EXPECT_EQ(rt.outstanding_leases(), 0u);
  for (int w = 0; w < rt.topology().worker_count(); ++w) {
    EXPECT_EQ(rt.worker_pending(w), 0) << "worker " << w;
  }
}

// --- phi-accrual detector ----------------------------------------------------

TEST(PhiDetector, SilenceRaisesSuspicion) {
  resil::PhiAccrualDetector det(/*window=*/16, /*min_std=*/0.01);
  EXPECT_FALSE(det.started());
  EXPECT_EQ(det.phi(1.0), 0.0);  // no history: never suspicious

  for (int i = 0; i <= 10; ++i) det.heartbeat(0.05 * i);
  EXPECT_TRUE(det.started());
  EXPECT_NEAR(det.mean(), 0.05, 1e-12);
  EXPECT_DOUBLE_EQ(det.stddev(), 0.01);  // deterministic gaps: floored

  const double now = 0.5;  // exactly at the last arrival
  const double phi_fresh = det.phi(now + 0.05);   // one period of silence
  const double phi_late = det.phi(now + 0.15);    // three periods
  const double phi_dead = det.phi(now + 1.00);    // long gone
  EXPECT_LT(phi_fresh, 1.0);
  EXPECT_GT(phi_late, phi_fresh);
  EXPECT_GT(phi_dead, 8.0);
  EXPECT_GE(phi_dead, phi_late);
}

TEST(PhiDetector, ResetForgetsHistory) {
  resil::PhiAccrualDetector det(8, 0.01);
  det.heartbeat(0.0);
  det.heartbeat(0.1);
  EXPECT_TRUE(det.started());
  det.reset();
  EXPECT_FALSE(det.started());
  EXPECT_EQ(det.phi(100.0), 0.0);
}

TEST(PhiDetector, WindowSlidesOldIntervalsOut) {
  resil::PhiAccrualDetector det(/*window=*/4, /*min_std=*/0.001);
  // Four slow gaps, then many fast ones: the slow history must age out.
  for (int i = 0; i <= 4; ++i) det.heartbeat(1.0 * i);
  const double phi_slow = det.phi(4.0 + 0.5);
  for (int i = 1; i <= 8; ++i) det.heartbeat(4.0 + 0.05 * i);
  const double phi_fast = det.phi(4.4 + 0.5);
  EXPECT_GT(phi_fast, phi_slow);  // 0.5 s silence is now alarming
  EXPECT_NEAR(det.mean(), 0.05, 1e-9);
}

// --- lease table -------------------------------------------------------------

TEST(LeaseTable, EpochsAreUniqueAndOrderedRequeue) {
  resil::LeaseTable table;
  auto& l5 = table.grant(5, /*worker=*/2, 0.0);
  auto& l3 = table.grant(3, 2, 0.1);
  auto& l9 = table.grant(9, 1, 0.2);
  EXPECT_NE(l5.epoch, l3.epoch);
  EXPECT_NE(l3.epoch, l9.epoch);
  const auto on2 = table.tasks_on(2);
  ASSERT_EQ(on2.size(), 2u);
  EXPECT_EQ(on2[0], 3u);  // ascending task id: deterministic re-queue order
  EXPECT_EQ(on2[1], 5u);
  table.revoke(3);
  EXPECT_EQ(table.find(3), nullptr);
  EXPECT_EQ(table.size(), 2u);
  // A re-grant of the same task gets a strictly newer epoch.
  const std::uint64_t old_epoch = l5.epoch;
  table.revoke(5);
  auto& l5b = table.grant(5, 0, 0.3);
  EXPECT_GT(l5b.epoch, old_epoch);
}

TEST(LeaseTable, BackoffDelayIsCappedExponential) {
  EXPECT_DOUBLE_EQ(resil::LeaseTable::backoff_delay(1), 0.05);
  EXPECT_DOUBLE_EQ(resil::LeaseTable::backoff_delay(2), 0.10);
  EXPECT_DOUBLE_EQ(resil::LeaseTable::backoff_delay(4), 0.40);
  EXPECT_DOUBLE_EQ(resil::LeaseTable::backoff_delay(7), 0.40);  // capped
}

// --- quarantine --------------------------------------------------------------

TEST(Quarantine, StreakEjectionAndGrowingCooldown) {
  resil::Quarantine q(2);

  EXPECT_FALSE(q.record_expiry(0));
  EXPECT_FALSE(q.record_expiry(0));
  q.record_success(0);  // a served lease resets the streak
  EXPECT_FALSE(q.record_expiry(0));
  EXPECT_FALSE(q.record_expiry(0));
  EXPECT_TRUE(q.record_expiry(0));  // third consecutive expiry

  EXPECT_DOUBLE_EQ(q.eject(0, 10.0), 11.0);  // first ejection: 1 s cooling
  EXPECT_TRUE(q.ejected(0));
  EXPECT_FALSE(q.ejected(1));
  // Each probe that finds it still silent doubles the cooling (2, 4 s)
  // up to the 8 s cap, where it stays.
  EXPECT_DOUBLE_EQ(q.extend(0, 11.0), 13.0);
  EXPECT_DOUBLE_EQ(q.extend(0, 13.0), 17.0);
  EXPECT_DOUBLE_EQ(q.extend(0, 17.0), 25.0);
  EXPECT_DOUBLE_EQ(q.extend(0, 25.0), 33.0);
  q.readmit(0);
  EXPECT_FALSE(q.ejected(0));
  EXPECT_EQ(q.expiry_streak(0), 0);
  // The ejection count survives readmission: the next ejection starts at
  // the capped cooling straight away (flapping pays full price).
  EXPECT_DOUBLE_EQ(q.eject(0, 40.0), 48.0);
}

// --- the Heartbeat-mode protocol against a fake host --------------------------
//
// resil::Monitor reaches the runtime only through resil::Host, so these
// tests run the protocol on a bare engine and control plane: worker 0 is
// the home (apprank process) on node 0, workers 1 and 2 are its helpers on
// nodes 1 and 2. The fake host records every call with its time.

struct FakeHost final : resil::Host {
  explicit FakeHost(const sim::Engine& e) : engine(e) {}
  bool worker_alive(int w) const override {
    return alive[static_cast<std::size_t>(w)] != 0;
  }
  int home_of(int) const override { return 0; }
  int node_of(int w) const override { return w; }
  double node_speed(int) const override { return 1.0; }
  void offload_delivered(std::uint64_t task, int w) override {
    delivered.emplace_back(task, w);
  }
  void complete_task(std::uint64_t task) override {
    completed.push_back(task);
  }
  void void_assignment(std::uint64_t task, int w, std::uint64_t epoch,
                       bool was_delivered, bool settled) override {
    voided.push_back({task, w, epoch, was_delivered, settled, engine.now()});
    if (on_void) on_void(task);
  }
  void replan(int w, resil::Verdict verdict) override {
    verdicts.push_back({w, verdict, engine.now()});
  }
  void mark(std::string_view label) override { marks.emplace_back(label); }

  struct Voided {
    std::uint64_t task;
    int worker;
    std::uint64_t epoch;
    bool delivered;
    bool settled;
    sim::SimTime at;
  };
  struct Replan {
    int worker;
    resil::Verdict verdict;
    sim::SimTime at;
  };
  const sim::Engine& engine;
  std::vector<char> alive = {1, 1, 1};
  std::vector<std::pair<std::uint64_t, int>> delivered;
  std::vector<std::uint64_t> completed;
  std::vector<Voided> voided;
  std::vector<Replan> verdicts;
  std::vector<std::string> marks;
  std::function<void(std::uint64_t task)> on_void;  ///< e.g. re-offload
};

/// A monitor over one home and two helpers, each on its own node.
struct ProtocolRig {
  explicit ProtocolRig(sim::SimTime latency = sim::LinkSpec{}.latency)
      : ctrl(engine, link_of(latency), {0, 1, 2}),
        monitor(engine, ctrl, host, 3) {}
  static sim::LinkSpec link_of(sim::SimTime latency) {
    sim::LinkSpec link;
    link.latency = latency;
    return link;
  }
  /// Ends the run at `t`: pending timers and messages become no-ops.
  void stop_at(sim::SimTime t) {
    engine.at(t, [this] { monitor.stop(); });
  }
  sim::Engine engine;
  FakeHost host{engine};
  vmpi::Communicator ctrl;
  resil::Monitor monitor;
};

TEST(Monitor, StaleEpochCompletionIsSuppressedAndCounted) {
  ProtocolRig rig;
  rig.host.alive[1] = 0;  // helper 1 is down: its lease will expire
  rig.monitor.note_crash(1);
  rig.host.on_void = [&rig](std::uint64_t task) {
    rig.monitor.offload(task, 2, 1.0);  // re-queued onto helper 2
  };
  rig.monitor.offload(7, 1, 1.0);
  const std::uint64_t stale = rig.monitor.epoch_of(7, 1);
  rig.engine.run();
  ASSERT_EQ(rig.host.voided.size(), 1u);
  ASSERT_EQ(rig.host.delivered.size(), 1u);
  EXPECT_EQ(rig.host.delivered[0], (std::pair<std::uint64_t, int>{7, 2}));
  const std::uint64_t fresh = rig.monitor.epoch_of(7, 2);
  EXPECT_GT(fresh, stale);

  // A zombie of the first assignment reports under the stale epoch: it is
  // suppressed and counted, and the lease stays open.
  rig.monitor.send_completion(7, 1, stale);
  rig.engine.run();
  EXPECT_TRUE(rig.host.completed.empty());
  EXPECT_EQ(rig.monitor.counters().duplicates_suppressed, 1u);
  EXPECT_EQ(rig.monitor.outstanding_leases(), 1u);

  // The current execution's completion is accepted exactly once.
  rig.monitor.send_completion(7, 2, fresh);
  rig.engine.run();
  EXPECT_EQ(rig.host.completed, std::vector<std::uint64_t>{7});
  EXPECT_EQ(rig.monitor.counters().duplicates_suppressed, 1u);
  EXPECT_EQ(rig.monitor.outstanding_leases(), 0u);
}

TEST(Monitor, DuplicateOffloadCopyIsReAckedWithoutSecondDelivery) {
  // A one-way latency of 0.04 s puts the ACK (0.08 s) after the first
  // lease timeout (0.05 s): the retransmitted copy reaches the helper
  // after the original.
  ProtocolRig rig(0.04);
  rig.monitor.offload(7, 1, 1.0);
  rig.engine.run();
  EXPECT_EQ(rig.host.delivered.size(), 1u);
  EXPECT_EQ(rig.monitor.counters().lease_retransmits, 1u);
  // One retransmitted offload and two ACKs (the original's and the
  // duplicate's).
  EXPECT_EQ(rig.monitor.control_messages(), 3u);
  EXPECT_EQ(rig.monitor.counters().lease_expiries, 0u);
  EXPECT_TRUE(rig.host.voided.empty());
  EXPECT_EQ(rig.monitor.outstanding_leases(), 1u);
}

TEST(Monitor, RetransmitsFollowBackoffThenTheLeaseExpires) {
  ProtocolRig rig;
  rig.host.alive[1] = 0;  // every copy is delivered into a corpse
  rig.monitor.offload(7, 1, 1.0);
  // Transmission k + 1 follows transmission k by backoff_delay(k); the
  // lease expires backoff_delay(kLeaseMaxAttempts) after the last one.
  std::vector<sim::SimTime> sent = {0.0};
  for (int k = 1; k < resil::kLeaseMaxAttempts; ++k) {
    sent.push_back(sent.back() + resil::LeaseTable::backoff_delay(k));
  }
  const sim::SimTime expiry =
      sent.back() + resil::LeaseTable::backoff_delay(resil::kLeaseMaxAttempts);
  std::vector<std::uint64_t> seen;  // retransmits just before each send
  for (std::size_t k = 1; k < sent.size(); ++k) {
    rig.engine.at((sent[k - 1] + sent[k]) / 2, [&rig, &seen] {
      seen.push_back(rig.monitor.counters().lease_retransmits);
    });
  }
  rig.engine.run();
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(rig.monitor.counters().lease_retransmits,
            static_cast<std::uint64_t>(resil::kLeaseMaxAttempts - 1));
  EXPECT_EQ(rig.monitor.counters().lease_expiries, 1u);
  ASSERT_EQ(rig.host.voided.size(), 1u);
  EXPECT_DOUBLE_EQ(rig.host.voided[0].at, expiry);
  EXPECT_FALSE(rig.host.voided[0].delivered);
  EXPECT_FALSE(rig.host.voided[0].settled);
  ASSERT_EQ(rig.host.verdicts.size(), 1u);
  EXPECT_EQ(rig.host.verdicts[0].verdict, resil::Verdict::Expired);
  EXPECT_FALSE(rig.monitor.ejected(1));
  EXPECT_TRUE(rig.host.delivered.empty());
}

TEST(Monitor, ConsecutiveExpiriesEscalateToSuspicion) {
  ProtocolRig rig;
  rig.host.alive[1] = 0;
  rig.monitor.note_crash(1);
  for (int task = 1; task <= resil::kQuarantineThreshold; ++task) {
    rig.monitor.offload(static_cast<std::uint64_t>(task), 1, 1.0);
  }
  rig.stop_at(5.0);  // a dead worker is probed forever otherwise
  rig.engine.run();
  // The first threshold - 1 expiries only move their task; the last one
  // quarantines the worker, which voids its remaining lease.
  ASSERT_EQ(rig.host.verdicts.size(),
            static_cast<std::size_t>(resil::kQuarantineThreshold));
  for (int k = 0; k + 1 < resil::kQuarantineThreshold; ++k) {
    EXPECT_EQ(rig.host.verdicts[static_cast<std::size_t>(k)].verdict,
              resil::Verdict::Expired);
  }
  EXPECT_EQ(rig.host.verdicts.back().verdict, resil::Verdict::Suspected);
  EXPECT_EQ(rig.host.voided.size(),
            static_cast<std::size_t>(resil::kQuarantineThreshold));
  EXPECT_TRUE(rig.monitor.ejected(1));
  EXPECT_EQ(rig.monitor.outstanding_leases(), 0u);
  const resil::Counters& c = rig.monitor.counters();
  EXPECT_EQ(c.lease_expiries,
            static_cast<std::uint64_t>(resil::kQuarantineThreshold));
  EXPECT_EQ(c.quarantine_ejections, 1u);
  EXPECT_EQ(c.detections, 1u);
  EXPECT_EQ(c.false_suspicions, 0u);
  EXPECT_DOUBLE_EQ(c.detection_latency_sum, rig.host.verdicts.back().at);
}

TEST(Monitor, ProbeReadmitsAHeardWorkerAndExtendsASilentOne) {
  ProtocolRig rig;
  rig.host.alive[2] = 0;  // helper 2 never beats
  rig.monitor.note_crash(2);
  rig.monitor.start();
  // A 2 s control-plane stall holds back helper 1's beat at 0.525 s and,
  // FIFO behind it, every later one: it is suspected while alive, and
  // heard again only after its first probe.
  rig.engine.at(0.49, [&rig] {
    vmpi::LinkFault stall;
    stall.latency_mult = 2.0 / sim::LinkSpec{}.latency;
    rig.ctrl.set_link_fault(stall);
  });
  rig.engine.at(0.53, [&rig] { rig.ctrl.set_link_fault({}); });
  rig.stop_at(10.0);
  rig.engine.run();

  const resil::Counters& c = rig.monitor.counters();
  EXPECT_EQ(c.detections, 1u);        // helper 2
  EXPECT_EQ(c.false_suspicions, 1u);  // helper 1
  EXPECT_EQ(c.quarantine_ejections, 2u);
  EXPECT_EQ(c.quarantine_readmissions, 1u);
  EXPECT_FALSE(rig.monitor.ejected(1));
  EXPECT_TRUE(rig.monitor.ejected(2));  // silent: every probe extends

  std::vector<FakeHost::Replan> of_1;
  for (const FakeHost::Replan& r : rig.host.verdicts) {
    if (r.worker == 1) of_1.push_back(r);
  }
  ASSERT_EQ(of_1.size(), 2u);
  EXPECT_EQ(of_1[0].verdict, resil::Verdict::Suspected);
  EXPECT_EQ(of_1[1].verdict, resil::Verdict::Readmitted);
  // Still silent at the first probe (one cooling period on), so the
  // cooling was extended by the grown period; readmitted at the second.
  EXPECT_NEAR(of_1[1].at,
              of_1[0].at + resil::kQuarantineCooling +
                  resil::kQuarantineCooling * resil::kQuarantineBackoff,
              1e-9);
  EXPECT_EQ(std::count(rig.host.marks.begin(), rig.host.marks.end(),
                       std::string("readmitted worker 1")),
            1);
}

TEST(Monitor, JoinerSilenceCountsFromItsJoinTime) {
  // Two helpers join at t0, well after the bootstrap window of the
  // initial ones has passed: worker 3 beats, worker 4 never does. Neither
  // may be suspected before t0 + kPhiThreshold heartbeat periods; the
  // silent one is suspected at the first sweep after that.
  ProtocolRig rig;
  constexpr sim::SimTime t0 = 1.01;
  constexpr sim::SimTime window =
      resil::kPhiThreshold * resil::kHeartbeatPeriod;
  static_assert(t0 > window);
  rig.monitor.start();
  rig.engine.at(t0, [&rig] {
    for (const char alive : {1, 0}) {
      rig.host.alive.push_back(alive);
      const int w = rig.ctrl.add_rank(rig.ctrl.size());
      rig.monitor.add_worker(w);
    }
  });
  rig.stop_at(t0 + 4 * window);
  rig.engine.run();

  std::vector<FakeHost::Replan> joiners;
  for (const FakeHost::Replan& r : rig.host.verdicts) {
    if (r.worker >= 3) joiners.push_back(r);
  }
  ASSERT_EQ(joiners.size(), 1u);
  EXPECT_EQ(joiners[0].worker, 4);
  EXPECT_EQ(joiners[0].verdict, resil::Verdict::Suspected);
  EXPECT_GT(joiners[0].at, t0 + window);
  EXPECT_LE(joiners[0].at, t0 + window + resil::kHeartbeatPeriod + 1e-9);
  EXPECT_FALSE(rig.monitor.ejected(3));
  EXPECT_TRUE(rig.monitor.ejected(4));
  EXPECT_EQ(rig.monitor.counters().false_suspicions, 0u);
}

// --- static ownership plan (last fallback rung) ------------------------------

TEST(Policies, StaticOwnershipPlanSplitsEvenly) {
  const core::RuntimeConfig cfg = resil_cluster(4, 8, 2);
  core::ClusterRuntime rt(cfg);  // builds the topology for us
  const std::vector<int> cores(4, 8);
  const auto plan = core::static_ownership_plan(rt.topology(), cores);
  ASSERT_EQ(plan.size(), 4u);
  for (const auto& node_plan : plan) {
    int total = 0;
    for (const auto& [w, count] : node_plan) {
      (void)w;
      EXPECT_GE(count, 1);
      total += count;
    }
    EXPECT_EQ(total, 8);
  }
}

// --- heartbeat-mode crash detection ------------------------------------------

// Tentpole acceptance: with oracle detection disabled, a helper crash is
// *observed* — finite detection latency, every task still completes, and
// completion accounting stays exactly-once.
TEST(Resil, HeartbeatDetectsCrashAndRecovers) {
  core::RuntimeConfig cfg = resil_cluster(4, 16, 3);
  cfg.resil.detection = resil::DetectionMode::Heartbeat;
  const apps::SyntheticConfig scfg = synth(4, 8, 240, 2.5);

  apps::SyntheticWorkload wl_clean(scfg);
  const auto clean = core::ClusterRuntime(cfg).run(wl_clean);

  apps::SyntheticWorkload wl(scfg);
  core::ClusterRuntime rt(cfg);
  const core::WorkerId victim = rt.topology().workers_of_apprank(0)[1];
  fault::FaultInjector injector(
      fault::FaultPlan().crash_worker(victim, clean.makespan * 0.45));
  injector.attach(rt);
  // No rescued task may have ended up executing on the corpse.
  int rescued_on_corpse = 0;
  rt.observe_retired_tasks([&](const nanos::Task& t) {
    if (t.reexecutions > 0 && t.executed_worker == victim) {
      ++rescued_on_corpse;
    }
  });
  const auto r = rt.run(wl);

  EXPECT_EQ(r.workers_crashed, 1u);
  EXPECT_FALSE(rt.worker_alive(victim));
  EXPECT_GT(r.heartbeat_messages, 0u);

  // The failure was detected, not announced: latency is finite, positive,
  // and small (a handful of heartbeat periods).
  EXPECT_EQ(r.detections, 1u);
  EXPECT_GT(r.mean_detection_latency(), 0.0);
  EXPECT_LT(r.mean_detection_latency(), 1.0);
  EXPECT_EQ(count_marks(rt, "detected crash of worker " +
                                std::to_string(victim)),
            1u);
  EXPECT_EQ(count_marks(rt, "false suspicion of worker "), 0u);
  EXPECT_GE(r.quarantine_ejections, 1u);
  EXPECT_GT(r.tasks_reexecuted, 0u);

  expect_all_work_done(rt, r, scfg.iterations);
  EXPECT_EQ(rescued_on_corpse, 0);
}

// A crash landing exactly on an iteration boundary (while the appranks sit
// in the MPI barrier, no offloaded work in flight) must not deadlock
// on_barrier_done — in either detection mode.
TEST(Resil, CrashDuringBarrierDoesNotDeadlock) {
  const apps::SyntheticConfig scfg = synth(4, 6, 120, 2.0);
  for (const auto mode :
       {resil::DetectionMode::Oracle, resil::DetectionMode::Heartbeat}) {
    core::RuntimeConfig cfg = resil_cluster(4, 8, 2);
    cfg.resil.detection = mode;

    apps::SyntheticWorkload wl_clean(scfg);
    const auto clean = core::ClusterRuntime(cfg).run(wl_clean);
    ASSERT_GE(clean.iteration_times.size(), 2u);
    // The instant the first global barrier completes is an iteration
    // boundary; crash exactly there.
    const double boundary = clean.iteration_times[0];

    apps::SyntheticWorkload wl(scfg);
    core::ClusterRuntime rt(cfg);
    const core::WorkerId victim = rt.topology().workers_of_apprank(0)[1];
    fault::FaultInjector injector(
        fault::FaultPlan().crash_worker(victim, boundary));
    injector.attach(rt);
    const auto r = rt.run(wl);

    EXPECT_EQ(r.workers_crashed, 1u);
    EXPECT_EQ(r.iteration_times.size(), static_cast<std::size_t>(scfg.iterations))
        << "run deadlocked in mode "
        << (mode == resil::DetectionMode::Oracle ? "oracle" : "heartbeat");
    EXPECT_EQ(r.tasks_not_exactly_once, 0u);
  }
}

// Satellite (a): crash_worker is idempotent — a second crash of the same
// worker (or a crash scheduled after the run drained) is a no-op, and
// killing the last live helper of an apprank degrades to home-only
// execution instead of wedging. Every node's cores are all taken by its
// two resident workers, so the rewire finds no spare capacity and fails.
TEST(Resil, DoubleCrashAndLastHelperAreGuarded) {
  core::RuntimeConfig cfg = resil_cluster(4, 2, 2);
  apps::SyntheticWorkload wl(synth(4, 6, 120, 2.0));
  core::ClusterRuntime rt(cfg);
  const core::WorkerId victim = rt.topology().workers_of_apprank(0)[1];
  ASSERT_EQ(rt.topology().workers_of_apprank(0).size(), 2u);
  fault::FaultInjector injector(fault::FaultPlan()
                                    .crash_worker(victim, 1.0)
                                    .crash_worker(victim, 1.5)    // duplicate
                                    .crash_worker(victim, 2.0));  // again
  injector.attach(rt);
  const auto r = rt.run(wl);

  EXPECT_EQ(r.workers_crashed, 1u);  // counted exactly once
  EXPECT_EQ(r.rewired_edges, 0u);
  EXPECT_EQ(count_marks(rt, "rewire failed"), 1u);
  EXPECT_EQ(r.iteration_times.size(), 6u);
  EXPECT_EQ(r.tasks_not_exactly_once, 0u);
}

// --- link blackout: false suspicion, quarantine, readmission -----------------

// Tentpole acceptance: a 30 s control/app-plane blackout (huge latency,
// nothing lost) makes the home runtimes falsely suspect their helpers,
// quarantine them, absorb the work, and readmit the helpers once their
// delayed heartbeats drain — zero lost tasks, no deadlock, exactly-once.
TEST(Resil, LinkBlackoutQuarantinesAndReadmits) {
  core::RuntimeConfig cfg = resil_cluster(4, 8, 2);
  cfg.resil.detection = resil::DetectionMode::Heartbeat;
  const apps::SyntheticConfig scfg = synth(4, 10, 120, 2.0);

  apps::SyntheticWorkload wl(scfg);
  core::ClusterRuntime rt(cfg);
  // latency_mult turns the ~2 us link latency into ~30 s per message for
  // the duration of the window — a blackout in everything but name
  // (loss_rate 1.0 is rejected by FaultPlan by design).
  const double blackout_mult = 30.0 / cfg.cluster.link.latency;
  fault::FaultInjector injector(fault::FaultPlan().degrade_link(
      blackout_mult, 1.0, 0.0, /*at=*/2.0, /*until=*/32.0));
  injector.attach(rt);
  const auto r = rt.run(wl);

  EXPECT_EQ(r.workers_crashed, 0u);
  EXPECT_EQ(r.detections, 0u);  // nobody actually died...
  EXPECT_GT(r.false_suspicions, 0u);  // ...but the silence was judged fatal
  EXPECT_GT(r.quarantine_ejections, 0u);
  EXPECT_GT(r.quarantine_readmissions, 0u);  // helpers came back
  EXPECT_EQ(count_marks(rt, "false suspicion of worker "),
            r.false_suspicions);
  // Suspicion revoked leases whose executions were already running or
  // whose completions were in flight: their stale-epoch completions were
  // suppressed rather than double-counted.
  EXPECT_GT(r.duplicates_suppressed, 0u);

  expect_all_work_done(rt, r, scfg.iterations);
  // Note: some workers may legitimately still sit in a quarantine cooldown
  // window at the instant the run drains (flapping pays growing cooldowns);
  // the readmission counter above proves the probe-back path ran.
}

// Golden fingerprint of a heartbeat-mode run: a helper crash plus a
// window of link jitter that delays lease ACKs past the lease timeout.
// The run goes through phi detection, lease retransmits with backoff and
// quarantine ejection and readmission, so a change to any of their fixed
// tuning values moves the schedule.
TEST(Resil, HeartbeatCrashGoldenSchedule) {
  core::RuntimeConfig cfg = resil_cluster(4, 8, 2);
  cfg.resil.detection = resil::DetectionMode::Heartbeat;
  apps::SyntheticWorkload wl(synth(4, 6, 120, 2.0));
  core::ClusterRuntime rt(cfg);
  fault::FaultInjector injector(
      fault::FaultPlan()
          .crash_worker(rt.topology().workers_of_apprank(0)[1], 1.5)
          .degrade_link(1.0, 1.0, 0.08, 0.5, 1.0));
  injector.attach(rt);
  const auto r = rt.run(wl);
  EXPECT_EQ(r.detections, 1u);
  EXPECT_GT(r.lease_retransmits, 0u);
  EXPECT_GT(r.quarantine_readmissions, 0u);
  EXPECT_EQ(core::schedule_fingerprint(rt, r), 0x6368aa7f9bad4acbull);
}

// Each task record is folded into the schedule digest when its iteration's
// barrier retires it, and then freed. Ghost executions, zombies of stale
// offload copies and stale completions can fire after that barrier: they
// must neither read a freed record (get() throws) nor change a
// fingerprinted field. A second of control-plane jitter produces all three
// after their barrier (4 ghost finishes, 29 zombie deliveries and 33
// completions in the jitter run, counted with a probe). The crash of
// HeartbeatCrashGoldenSchedule suspects no live worker whose completion is
// still on its way, so it suppresses no stale completion; the same crash
// under that second of jitter does (242 of them after their barrier,
// counted with a probe). A span collector keeps no record past its
// barrier either, so with one attached the run must still make the same
// schedule.
TEST(Resil, RecordsDoNotChangeAfterTheirBarrier) {
  enum class Fault { Jitter, Crash, CrashJitter };
  for (const Fault fault : {Fault::Jitter, Fault::Crash, Fault::CrashJitter}) {
    SCOPED_TRACE(fault == Fault::Jitter  ? "jitter"
                 : fault == Fault::Crash ? "crash"
                                         : "crash+jitter");
    std::uint64_t fingerprint = 0;
    for (const bool collector : {false, true}) {
      core::RuntimeConfig cfg = resil_cluster(4, 8, 2);
      cfg.resil.detection = resil::DetectionMode::Heartbeat;
      cfg.obs.spans = collector;
      const bool jitter = fault == Fault::Jitter;
      apps::SyntheticWorkload wl(synth(4, jitter ? 8 : 6, jitter ? 16 : 120,
                                       2.0));
      core::ClusterRuntime rt(cfg);
      const core::WorkerId helper = rt.topology().workers_of_apprank(0)[1];
      fault::FaultPlan plan;
      switch (fault) {
        case Fault::Jitter:
          plan.degrade_link(1.0, 1.0, 1.0, 0.1, 100.0);
          break;
        case Fault::Crash:
          plan.crash_worker(helper, 1.5).degrade_link(1.0, 1.0, 0.08, 0.5,
                                                      1.0);
          break;
        case Fault::CrashJitter:
          plan.crash_worker(helper, 1.5).degrade_link(1.0, 1.0, 1.0, 0.1,
                                                      100.0);
          break;
      }
      fault::FaultInjector injector(std::move(plan));
      injector.attach(rt);
      const auto r = rt.run(wl);
      if (fault == Fault::Crash) {
        EXPECT_EQ(r.duplicates_suppressed, 0u);
        EXPECT_EQ(r.false_suspicions, 2u);
      } else {
        EXPECT_GT(r.duplicates_suppressed, 0u);
      }
      if (fault != Fault::Jitter) {
        EXPECT_EQ(r.detections, 1u);
      }
      EXPECT_GT(r.tasks_reexecuted, 0u);
      EXPECT_EQ(r.tasks_not_exactly_once, 0u);
      if (!collector) {
        fingerprint = core::schedule_fingerprint(rt, r);
        continue;
      }
      EXPECT_EQ(core::schedule_fingerprint(rt, r), fingerprint);
    }
  }
}

// Heartbeat-mode runs remain a pure function of the seed.
TEST(Resil, HeartbeatRunsAreDeterministic) {
  auto run_once = [](core::ClusterRuntime& rt) {
    apps::SyntheticWorkload wl(synth(4, 6, 120, 2.0));
    fault::FaultInjector injector(
        fault::FaultPlan()
            .lose_messages(0.10, 0.5, 2.5)
            .crash_worker(rt.topology().workers_of_apprank(0)[1], 1.5));
    injector.attach(rt);
    return rt.run(wl);
  };
  core::RuntimeConfig cfg = resil_cluster(4, 8, 2);
  cfg.resil.detection = resil::DetectionMode::Heartbeat;
  core::ClusterRuntime rt_a(cfg);
  core::ClusterRuntime rt_b(cfg);
  const auto a = run_once(rt_a);
  const auto b = run_once(rt_b);

  EXPECT_EQ(a.makespan, b.makespan);  // bitwise
  EXPECT_EQ(a.iteration_times, b.iteration_times);
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.heartbeat_messages, b.heartbeat_messages);
  EXPECT_EQ(a.detections, b.detections);
  EXPECT_EQ(a.false_suspicions, b.false_suspicions);
  EXPECT_EQ(a.detection_latency_sum, b.detection_latency_sum);  // bitwise
  EXPECT_EQ(a.lease_retransmits, b.lease_retransmits);
  EXPECT_EQ(a.duplicates_suppressed, b.duplicates_suppressed);
  EXPECT_EQ(a.tasks_reexecuted, b.tasks_reexecuted);
  EXPECT_EQ(rt_a.recorder().marks(), rt_b.recorder().marks());
}

// --- solver fallback chain ---------------------------------------------------

TEST(Resil, FaultFreeGlobalRunNeverDownshifts) {
  core::RuntimeConfig cfg = resil_cluster(4, 16, 3);
  apps::SyntheticWorkload wl(synth(4, 6, 120, 2.0));
  core::ClusterRuntime rt(cfg);
  const auto r = rt.run(wl);
  EXPECT_EQ(r.policy_downshifts, 0u);
}

// --- expander rewire ---------------------------------------------------------

// When a crash disconnects an apprank from its only helper, a replacement
// helper edge is added (graph, topology, control plane, DLB state all
// grow) and offloading continues on the new edge.
TEST(Resil, CrashDisconnectingApprankRewiresExpander) {
  core::RuntimeConfig cfg = resil_cluster(4, 8, 2);
  apps::SyntheticWorkload wl(synth(4, 8, 160, 2.5));
  core::ClusterRuntime rt(cfg);
  const int workers_before = rt.topology().worker_count();
  const core::WorkerId victim = rt.topology().workers_of_apprank(0)[1];
  const int victim_node = rt.topology().worker(victim).node;
  fault::FaultInjector injector(fault::FaultPlan().crash_worker(victim, 1.5));
  injector.attach(rt);
  std::set<core::WorkerId> executed_on;
  rt.observe_retired_tasks(
      [&](const nanos::Task& t) { executed_on.insert(t.executed_worker); });
  const auto r = rt.run(wl);

  EXPECT_EQ(r.rewired_edges, 1u);
  EXPECT_EQ(rt.topology().worker_count(), workers_before + 1);
  ASSERT_EQ(rt.topology().workers_of_apprank(0).size(), 3u);
  const core::WorkerId fresh = rt.topology().workers_of_apprank(0)[2];
  EXPECT_FALSE(rt.topology().worker(fresh).is_home);
  EXPECT_NE(rt.topology().worker(fresh).node, victim_node);
  EXPECT_TRUE(rt.offload_graph().has_edge(0, rt.topology().worker(fresh).node));
  EXPECT_TRUE(rt.worker_alive(fresh));

  // The replacement actually executed offloaded work for apprank 0.
  EXPECT_EQ(r.tasks_not_exactly_once, 0u);
  EXPECT_EQ(executed_on.count(fresh), 1u);
  EXPECT_EQ(r.iteration_times.size(), 8u);
}

}  // namespace
}  // namespace tlb
