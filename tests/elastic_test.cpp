// Tests of the elasticity subsystem (tlb::elastic): the hysteresis scale
// controller, the xDS-style control plane, and the svc::JobManager
// powered-node pool with its node-seconds billing and control-plane
// appliers. Also pins the inertness contract: a single ClusterRuntime
// never reads the elastic config, enabled or not.
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/synthetic.hpp"
#include "core/runtime.hpp"
#include "elastic/controller.hpp"
#include "elastic/xds.hpp"
#include "fingerprint.hpp"
#include "svc/job_manager.hpp"

namespace {

using namespace tlb;

// --- ElasticController -------------------------------------------------------

elastic::ElasticConfig controller_config() {
  elastic::ElasticConfig e;
  e.enabled = true;
  e.min_nodes = 2;
  e.max_nodes = 6;
  e.eval_period = 0.1;
  e.high_pressure = 1.0;
  e.low_pressure = 0.5;
  e.sustain_ticks = 2;
  e.idle_ticks = 3;
  e.cooldown = 0.5;
  e.step = 1;
  return e;
}

TEST(ElasticController, ScaleOutNeedsSustainedPressure) {
  elastic::ElasticController c(controller_config());
  EXPECT_EQ(c.observe(0.0, 1.5, 4), elastic::ScaleDecision::Hold);
  EXPECT_EQ(c.observe(0.1, 1.5, 4), elastic::ScaleDecision::Out);
  EXPECT_EQ(c.scale_out_decisions(), 1u);
}

TEST(ElasticController, DeadBandResetsBothStreaks) {
  elastic::ElasticController c(controller_config());
  EXPECT_EQ(c.observe(0.0, 1.5, 4), elastic::ScaleDecision::Hold);
  // One in-band sample wipes the high streak: the evidence must be
  // consecutive, not merely frequent.
  EXPECT_EQ(c.observe(0.1, 0.8, 4), elastic::ScaleDecision::Hold);
  EXPECT_EQ(c.observe(0.2, 1.5, 4), elastic::ScaleDecision::Hold);
  EXPECT_EQ(c.observe(0.3, 1.5, 4), elastic::ScaleDecision::Out);
}

TEST(ElasticController, ScaleInNeedsIdleTicks) {
  elastic::ElasticController c(controller_config());
  EXPECT_EQ(c.observe(0.0, 0.1, 4), elastic::ScaleDecision::Hold);
  EXPECT_EQ(c.observe(0.1, 0.1, 4), elastic::ScaleDecision::Hold);
  EXPECT_EQ(c.observe(0.2, 0.1, 4), elastic::ScaleDecision::In);
  EXPECT_EQ(c.scale_in_decisions(), 1u);
}

TEST(ElasticController, CooldownSeparatesActions) {
  elastic::ElasticController c(controller_config());
  ASSERT_EQ(c.observe(0.0, 1.5, 4), elastic::ScaleDecision::Hold);
  ASSERT_EQ(c.observe(0.1, 1.5, 4), elastic::ScaleDecision::Out);
  // Pressure stays high, but the 0.5 s cooldown gates the next action.
  EXPECT_EQ(c.observe(0.2, 1.5, 5), elastic::ScaleDecision::Hold);
  EXPECT_EQ(c.observe(0.4, 1.5, 5), elastic::ScaleDecision::Hold);
  EXPECT_EQ(c.observe(0.6, 1.5, 5), elastic::ScaleDecision::Out);
}

TEST(ElasticController, BoundsClampDecisions) {
  elastic::ElasticController c(controller_config());
  // At max_nodes a sustained-high streak yields Hold, not Out.
  ASSERT_EQ(c.observe(0.0, 1.5, 6), elastic::ScaleDecision::Hold);
  EXPECT_EQ(c.observe(0.1, 1.5, 6), elastic::ScaleDecision::Hold);
  // At min_nodes a long idle streak yields Hold, not In.
  elastic::ElasticController d(controller_config());
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(d.observe(0.1 * i, 0.0, 2), elastic::ScaleDecision::Hold)
        << "tick " << i;
  }
  EXPECT_EQ(d.scale_in_decisions(), 0u);
}

TEST(ElasticController, SetBoundsValidatesAndApplies) {
  elastic::ElasticController c(controller_config());
  EXPECT_THROW(c.set_bounds(0, 4), std::invalid_argument);
  EXPECT_THROW(c.set_bounds(5, 4), std::invalid_argument);
  c.set_bounds(3, 8);
  EXPECT_EQ(c.min_nodes(), 3);
  EXPECT_EQ(c.max_nodes(), 8);
  // The new ceiling takes effect: 6 active nodes may now scale out.
  ASSERT_EQ(c.observe(0.0, 1.5, 6), elastic::ScaleDecision::Hold);
  EXPECT_EQ(c.observe(0.1, 1.5, 6), elastic::ScaleDecision::Out);
}

TEST(ElasticController, RejectsInvalidConfigs) {
  auto bad = controller_config();
  bad.min_nodes = 0;
  EXPECT_THROW(elastic::ElasticController{bad}, std::invalid_argument);
  bad = controller_config();
  bad.min_nodes = 7;  // > max_nodes
  EXPECT_THROW(elastic::ElasticController{bad}, std::invalid_argument);
  bad = controller_config();
  bad.low_pressure = 1.5;  // >= high_pressure
  EXPECT_THROW(elastic::ElasticController{bad}, std::invalid_argument);
  bad = controller_config();
  bad.sustain_ticks = 0;
  EXPECT_THROW(elastic::ElasticController{bad}, std::invalid_argument);
  bad = controller_config();
  bad.eval_period = 0.0;
  EXPECT_THROW(elastic::ElasticController{bad}, std::invalid_argument);
}

// --- ControlPlane ------------------------------------------------------------

TEST(ControlPlane, AckAndVersionDiscipline) {
  elastic::ControlPlane cp;
  std::vector<std::string> applied;
  cp.subscribe("t", [&](const elastic::Resource& r) {
    applied.push_back(r.payload);
    return std::string{};
  });
  EXPECT_EQ(cp.push({"t", 1, "a"}).status, elastic::PushStatus::Acked);
  // Replays and regressions are rejected without invoking the applier.
  EXPECT_EQ(cp.push({"t", 1, "b"}).status, elastic::PushStatus::StaleVersion);
  EXPECT_EQ(cp.push({"t", 0, "c"}).status, elastic::PushStatus::StaleVersion);
  EXPECT_EQ(cp.push({"t", 5, "d"}).status, elastic::PushStatus::Acked);
  ASSERT_EQ(applied, (std::vector<std::string>{"a", "d"}));
  ASSERT_TRUE(cp.last_acked("t").has_value());
  EXPECT_EQ(cp.last_acked("t")->version, 5u);
  EXPECT_EQ(cp.pushes(), 4u);
  EXPECT_EQ(cp.acks(), 2u);
  EXPECT_EQ(cp.nacks(), 0u);  // stale is not a NACK: the applier never ran
}

TEST(ControlPlane, NackRollsBackToLastAcked) {
  elastic::ControlPlane cp;
  std::vector<std::string> applied;
  cp.subscribe("t", [&](const elastic::Resource& r) -> std::string {
    if (r.payload == "bad") return "rejected";
    applied.push_back(r.payload);
    return "";
  });
  ASSERT_EQ(cp.push({"t", 1, "good"}).status, elastic::PushStatus::Acked);
  const elastic::PushResult nack = cp.push({"t", 2, "bad"});
  EXPECT_EQ(nack.status, elastic::PushStatus::Nacked);
  EXPECT_EQ(nack.detail, "rejected");
  EXPECT_TRUE(nack.rolled_back);
  // The rollback re-applied the previously acked payload.
  EXPECT_EQ(applied, (std::vector<std::string>{"good", "good"}));
  EXPECT_EQ(cp.rollbacks(), 1u);
  // The acked version is unchanged, so a corrected v3 still applies.
  EXPECT_EQ(cp.last_acked("t")->version, 1u);
  EXPECT_EQ(cp.push({"t", 3, "fixed"}).status, elastic::PushStatus::Acked);
}

TEST(ControlPlane, FirstPushNackHasNothingToRollBack) {
  elastic::ControlPlane cp;
  cp.subscribe("t", [](const elastic::Resource&) { return "no"; });
  const elastic::PushResult r = cp.push({"t", 1, "x"});
  EXPECT_EQ(r.status, elastic::PushStatus::Nacked);
  EXPECT_FALSE(r.rolled_back);
  EXPECT_FALSE(cp.last_acked("t").has_value());
}

TEST(ControlPlane, UnknownTypeAndDuplicateSubscription) {
  elastic::ControlPlane cp;
  EXPECT_EQ(cp.push({"nope", 1, ""}).status, elastic::PushStatus::UnknownType);
  cp.subscribe("t", [](const elastic::Resource&) { return ""; });
  EXPECT_THROW(
      cp.subscribe("t", [](const elastic::Resource&) { return ""; }),
      std::invalid_argument);
}

TEST(ControlPlane, KvParsersAreStrict) {
  const auto kv = elastic::parse_kv("a=1 b=2.5  c=x");
  EXPECT_EQ(kv.at("a"), "1");
  EXPECT_EQ(kv.at("c"), "x");
  EXPECT_THROW(elastic::parse_kv("novalue"), std::invalid_argument);
  EXPECT_EQ(elastic::kv_int(kv, "a", -1), 1);
  EXPECT_EQ(elastic::kv_int(kv, "missing", -1), -1);  // fallback
  EXPECT_DOUBLE_EQ(elastic::kv_double(kv, "b", 0.0), 2.5);
  // Partial tokens must not parse: "x" is not an int, "2.5" not an int.
  EXPECT_THROW((void)elastic::kv_int(kv, "c", 0), std::invalid_argument);
  EXPECT_THROW((void)elastic::kv_int(kv, "b", 0), std::invalid_argument);
}

// --- ClusterRuntime ignores the pool config -----------------------------------

core::RuntimeConfig small_cluster() {
  core::RuntimeConfig cfg;
  cfg.cluster = sim::ClusterSpec::homogeneous(3, 4);
  cfg.appranks_per_node = 1;
  cfg.degree = 2;
  cfg.policy = core::PolicyKind::Global;
  cfg.seed = 11;
  cfg.record_traces = false;
  return cfg;
}

apps::SyntheticConfig small_app() {
  apps::SyntheticConfig app;
  app.appranks = 3;
  app.iterations = 6;
  app.tasks_per_rank = 60;
  app.imbalance = 2.0;
  return app;
}

TEST(RuntimeElastic, ElasticConfigIsInertInClusterRuntime) {
  apps::SyntheticConfig app = small_app();

  apps::SyntheticWorkload wl_a(app);
  core::ClusterRuntime rt_a(small_cluster());
  const core::RunResult ra = rt_a.run(wl_a);

  // A ClusterRuntime runs one job on a fixed cluster: even an enabled pool
  // config with thresholds that would scale out on the first sample is
  // never read (it belongs to svc::JobManager), so the run is
  // bit-identical to the default config.
  core::RuntimeConfig cfg = small_cluster();
  cfg.elastic.enabled = true;
  cfg.elastic.min_nodes = 3;
  cfg.elastic.max_nodes = 9;
  cfg.elastic.eval_period = 0.01;
  cfg.elastic.high_pressure = 0.01;
  cfg.elastic.low_pressure = 0.0;
  cfg.elastic.sustain_ticks = 1;
  cfg.elastic.cooldown = 0.0;
  cfg.elastic.step = 2;
  apps::SyntheticWorkload wl_b(app);
  core::ClusterRuntime rt_b(cfg);
  const core::RunResult rb = rt_b.run(wl_b);

  EXPECT_EQ(schedule_fingerprint(rt_a, ra), schedule_fingerprint(rt_b, rb));
  EXPECT_EQ(rt_b.topology().node_count(), 3);
  EXPECT_EQ(ra.control_messages, rb.control_messages);
}

// --- JobManager powered-node pool --------------------------------------------

core::RuntimeConfig service_base(double rate, double horizon) {
  core::RuntimeConfig cfg;
  cfg.cluster = sim::ClusterSpec::homogeneous(4, 4);
  cfg.policy = core::PolicyKind::Global;
  cfg.seed = 77;
  cfg.record_traces = false;
  cfg.svc.enabled = true;
  cfg.svc.arrivals.rate = rate;
  cfg.svc.arrivals.horizon = horizon;
  svc::JobTemplate tpl;
  tpl.nodes = 2;
  tpl.degree = 2;
  tpl.iterations = 2;
  tpl.tasks_per_rank = 16;
  tpl.base_duration = 0.050;
  tpl.imbalance = 1.5;
  tpl.deadline_class = 0;
  tpl.deadline = 5.0;
  cfg.svc.templates = {tpl};
  return cfg;
}

elastic::ElasticConfig pool_config() {
  elastic::ElasticConfig e;
  e.enabled = true;
  e.min_nodes = 2;
  e.max_nodes = 4;
  e.eval_period = 0.05;
  e.high_pressure = 0.95;
  e.low_pressure = 0.5;
  e.sustain_ticks = 1;
  e.idle_ticks = 4;
  e.cooldown = 0.1;
  e.step = 1;
  e.provision_delay = 0.1;
  return e;
}

TEST(JobManagerElastic, StaticRunBillsFullCluster) {
  svc::JobManager mgr(service_base(1.0, 3.0));
  const svc::SvcResult r = mgr.run();
  EXPECT_EQ(mgr.powered_count(), 4);
  EXPECT_EQ(r.peak_nodes, 4);
  EXPECT_DOUBLE_EQ(r.cost_node_seconds, 4.0 * r.elapsed);
  EXPECT_EQ(r.scale_out_events, 0u);
  EXPECT_EQ(r.scale_in_events, 0u);
}

TEST(JobManagerElastic, PoolBillsFewerNodeSecondsUnderLightLoad) {
  core::RuntimeConfig cfg = service_base(1.0, 4.0);

  svc::JobManager static_mgr(cfg);
  const svc::SvcResult rs = static_mgr.run();

  cfg.elastic = pool_config();
  svc::JobManager elastic_mgr(cfg);
  const svc::SvcResult re = elastic_mgr.run();

  // Same demand decided either way; the elastic pool powers a subset.
  EXPECT_EQ(re.arrived, rs.arrived);
  EXPECT_EQ(re.completed + re.shed, re.arrived);
  EXPECT_LT(re.cost_node_seconds, rs.cost_node_seconds);
  EXPECT_GE(re.peak_nodes, 2);
  EXPECT_LE(re.peak_nodes, 4);
  const int powered = elastic_mgr.powered_count();
  EXPECT_GE(powered, 2);
  EXPECT_LE(powered, 4);
}

TEST(JobManagerElastic, PinnedBoundsMatchStaticScheduleBitwise) {
  core::RuntimeConfig cfg = service_base(2.0, 3.0);
  svc::JobManager static_mgr(cfg);
  const svc::SvcResult rs = static_mgr.run();

  // min = max = cluster size: the controller can never act, every slot is
  // powered from t=0, so job-visible behavior is the static run's —
  // bitwise, despite the extra elastic-tick events on the engine.
  cfg.elastic = pool_config();
  cfg.elastic.min_nodes = 4;
  cfg.elastic.max_nodes = 4;
  svc::JobManager pinned_mgr(cfg);
  const svc::SvcResult rp = pinned_mgr.run();

  ASSERT_EQ(static_mgr.jobs().size(), pinned_mgr.jobs().size());
  for (std::size_t i = 0; i < static_mgr.jobs().size(); ++i) {
    EXPECT_EQ(static_mgr.jobs()[i].arrival, pinned_mgr.jobs()[i].arrival);
    EXPECT_EQ(static_mgr.jobs()[i].started, pinned_mgr.jobs()[i].started);
    EXPECT_EQ(static_mgr.jobs()[i].finished, pinned_mgr.jobs()[i].finished);
    EXPECT_EQ(static_mgr.jobs()[i].outcome, pinned_mgr.jobs()[i].outcome);
  }
  EXPECT_EQ(rp.completed, rs.completed);
  // The pinned run bills the full cluster for its whole elapsed time
  // (elapsed itself stretches to the final elastic tick, so it is not
  // comparable to the static run's).
  EXPECT_DOUBLE_EQ(rp.cost_node_seconds, 4.0 * rp.elapsed);
  EXPECT_EQ(rp.scale_out_events, 0u);
  EXPECT_EQ(rp.scale_in_events, 0u);
}

TEST(JobManagerElastic, ElasticRunIsDeterministic) {
  core::RuntimeConfig cfg = service_base(2.0, 4.0);
  cfg.elastic = pool_config();
  svc::JobManager a(cfg);
  svc::JobManager b(cfg);
  const svc::SvcResult ra = a.run();
  const svc::SvcResult rb = b.run();
  EXPECT_EQ(ra.completed, rb.completed);
  EXPECT_EQ(ra.engine_events, rb.engine_events);
  EXPECT_EQ(ra.cost_node_seconds, rb.cost_node_seconds);  // bitwise
  EXPECT_EQ(ra.scale_out_events, rb.scale_out_events);
  EXPECT_EQ(ra.scale_in_events, rb.scale_in_events);
  ASSERT_EQ(a.jobs().size(), b.jobs().size());
  for (std::size_t i = 0; i < a.jobs().size(); ++i) {
    EXPECT_EQ(a.jobs()[i].finished, b.jobs()[i].finished);
  }
}

TEST(JobManagerElastic, InvalidPoolBoundsThrow) {
  core::RuntimeConfig cfg = service_base(1.0, 2.0);
  cfg.elastic = pool_config();
  cfg.elastic.min_nodes = 5;  // > cluster size
  cfg.elastic.max_nodes = 8;
  EXPECT_THROW(svc::JobManager{cfg}, std::invalid_argument);

  cfg = service_base(1.0, 2.0);
  cfg.elastic = pool_config();
  cfg.elastic.max_nodes = 1;  // below the largest template (2 nodes)
  cfg.elastic.min_nodes = 1;
  EXPECT_THROW(svc::JobManager{cfg}, std::invalid_argument);
}

// --- JobManager control plane ------------------------------------------------

TEST(JobManagerControl, AdmissionPushRejectsInvalidLimits) {
  core::RuntimeConfig cfg = service_base(1.0, 2.0);
  cfg.svc.admission.enabled = true;
  cfg.svc.admission.initial_limit = 3;
  cfg.svc.admission.min_limit = 1;
  cfg.svc.admission.max_limit = 4;
  svc::JobManager mgr(cfg);
  elastic::ControlPlane& cp = mgr.control();
  EXPECT_EQ(
      cp.push({"tlb.svc.admission", 1, "min_limit=2 max_limit=6"}).status,
      elastic::PushStatus::Acked);
  EXPECT_EQ(
      cp.push({"tlb.svc.admission", 2, "min_limit=0 max_limit=-3"}).status,
      elastic::PushStatus::Nacked);
  // The acked config survived the bad push.
  EXPECT_EQ(cp.last_acked("tlb.svc.admission")->version, 1u);
}

TEST(JobManagerControl, ElasticBoundsPushNeedsThePool) {
  svc::JobManager no_pool(service_base(1.0, 2.0));
  EXPECT_EQ(no_pool.control().push({"tlb.elastic.nodes", 1, "min=2"}).status,
            elastic::PushStatus::Nacked);

  core::RuntimeConfig cfg = service_base(1.0, 2.0);
  cfg.elastic = pool_config();
  svc::JobManager with_pool(cfg);
  EXPECT_EQ(
      with_pool.control().push({"tlb.elastic.nodes", 1, "min=3 max=4"}).status,
      elastic::PushStatus::Acked);
  EXPECT_EQ(
      with_pool.control().push({"tlb.elastic.nodes", 2, "min=9 max=4"}).status,
      elastic::PushStatus::Nacked);
}

// Regression for the scale-in teardown audit: an elastic run with
// power-downs interleaved between job completions must decide every
// record exactly once and destroy cleanly with deferred events (solver
// plans, elastic ticks) still queued on the shared engine at completion
// time. Failure modes this pins: a completion callback indexing an
// unregistered LaunchedJob, or a powered-off slot reclaiming a live
// partition.
TEST(JobManagerElastic, ScaleInTeardownDecidesEveryRecordOnce) {
  core::RuntimeConfig cfg = service_base(3.0, 4.0);
  cfg.elastic = pool_config();
  cfg.svc.admission.enabled = true;
  cfg.svc.admission.initial_limit = 2;
  cfg.svc.admission.min_limit = 1;
  cfg.svc.admission.max_limit = 4;
  svc::SvcResult r;
  {
    svc::JobManager mgr(cfg);
    r = mgr.run();
    for (const auto& rec : mgr.jobs()) {
      EXPECT_NE(rec.outcome, svc::JobOutcome::Pending);
    }
  }  // ~JobManager with queued deferred events: must not touch freed jobs
  EXPECT_EQ(r.completed + r.shed, r.arrived);
  EXPECT_GT(r.scale_in_events, 0u);
}

}  // namespace
