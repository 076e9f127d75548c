// Fig 12 (extension): recovery from mid-run perturbations.
//
// Sweeps detector {oracle, phi} x policy {local, global} x offloading
// degree {2, 3, 4} x perturbation {slowdown, link-degrade, crash} on the
// synthetic benchmark and reports, per combination, the time the
// allocation policy needed to re-converge the node imbalance after the
// injection and the goodput lost relative to the unperturbed run.
// Perturbations are injected at 35% of the clean makespan; the transient
// ones recover at 70%.
//
// The detector column compares the oracle loss-detection baseline (crash
// handling fires the instant the worker dies — free and impossible in a
// real system) against the phi-accrual heartbeat detector (tlb::resil):
// detection_latency_s is the crash-to-suspicion delay the heartbeat
// protocol pays, and false_positives counts healthy workers quarantined by
// the transient perturbations (link degradation delays heartbeats too —
// the classic accrual-detector failure mode). Both are "n/a"/0 under the
// oracle.
//
// Expected shape: the global policy with degree >= 3 re-converges within a
// few solver periods and loses the least goodput, while the local policy —
// which balances but trails the global one (Fig 7/11) — hovers above the
// 1.15 convergence threshold at this node count. Higher degrees give the
// rebalancer more helpers to shift work to; the contrast is starkest for
// the crash at degree 2, where the overloaded apprank loses its only
// helper and pays a ~30-45% makespan penalty. The phi detector adds a
// small constant detection latency (a few heartbeat periods) to the crash
// rows and trades it for realism; the lease protocol keeps every task
// exactly-once regardless.
#include "apps/synthetic.hpp"
#include "bench/common.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "metrics/recovery.hpp"

namespace {

using namespace tlb;

constexpr int kNodes = 8;
constexpr int kCores = 16;

apps::SyntheticConfig workload_config() {
  apps::SyntheticConfig scfg;
  scfg.appranks = kNodes;
  scfg.iterations = bench::smoke() ? 4 : 16;
  scfg.tasks_per_rank = bench::smoke() ? 48 : 240;
  scfg.imbalance = 2.0;  // apprank 0 overloaded: its helpers carry work
  return scfg;
}

core::RuntimeConfig runtime_config(resil::DetectionMode detector,
                                   core::PolicyKind policy, int degree) {
  core::RuntimeConfig cfg;
  cfg.cluster = sim::ClusterSpec::homogeneous(kNodes, kCores);
  cfg.appranks_per_node = 1;
  cfg.degree = degree;
  cfg.policy = policy;
  cfg.resil.detection = detector;
  return cfg;
}

fault::FaultPlan make_plan(const std::string& kind, double inject, double recover,
                           const core::ClusterRuntime& rt) {
  fault::FaultPlan plan;
  if (kind == "slowdown") {
    plan.slow_node(/*node=*/1, 1.0 / 3.0, inject, recover);
  } else if (kind == "link-degrade") {
    plan.degrade_link(/*latency_mult=*/8.0, /*bandwidth_mult=*/0.25,
                      /*jitter_max=*/2e-5, inject, recover);
    plan.lose_messages(0.05, inject, recover);
  } else {  // crash: fail-stop, no recovery
    plan.crash_worker(rt.topology().workers_of_apprank(0)[1], inject);
  }
  return plan;
}

void run_combo(resil::DetectionMode detector, core::PolicyKind policy,
               int degree, const std::string& kind,
               bench::JsonReport& report) {
  const core::RuntimeConfig cfg = runtime_config(detector, policy, degree);

  apps::SyntheticWorkload wl_clean(workload_config());
  const auto clean = core::ClusterRuntime(cfg).run(wl_clean);

  apps::SyntheticWorkload wl(workload_config());
  core::ClusterRuntime rt(cfg);
  fault::FaultInjector injector(
      make_plan(kind, clean.makespan * 0.35, clean.makespan * 0.70, rt));
  injector.attach(rt);
  const auto r = rt.run(wl);

  std::vector<trace::StepSeries> node_busy;
  for (int n = 0; n < kNodes; ++n) {
    node_busy.push_back(rt.recorder().node_busy(n));
  }
  // Iteration-sized bins so barrier drains do not read as imbalance; trim
  // the end-of-run drain from the analysis window.
  const auto reports = metrics::recovery_reports(
      rt.recorder().marks(), node_busy, 0.0, r.makespan * 0.95,
      /*bins=*/16, /*threshold=*/1.15, /*hold=*/2);
  const auto& first = reports.front();
  std::printf(
      "%s,%s,%d,%s,%.4f,%.4f,%.1f,%s,%.2f,%llu,%llu,%s,%llu\n",
      detector == resil::DetectionMode::Oracle ? "oracle" : "phi",
      core::to_string(policy), degree,
      kind.c_str(), clean.makespan, r.makespan,
      100.0 * (r.makespan / clean.makespan - 1.0),
      first.reconverge_time < 0.0
          ? "never"
          : tlb::bench::fmt(first.reconverge_time, 2).c_str(),
      first.goodput_lost, (unsigned long long)r.tasks_reexecuted,
      (unsigned long long)r.retransmissions,
      r.detections == 0 ? "n/a"
                        : tlb::bench::fmt(r.mean_detection_latency(), 4).c_str(),
      (unsigned long long)r.false_suspicions);

  const std::string series =
      std::string(detector == resil::DetectionMode::Oracle ? "oracle" : "phi") +
      "/" + std::string(core::to_string(policy));
  auto& pt = report.point(series)
                 .set("degree", degree)
                 .set("perturbation", kind)
                 .set("clean_makespan", clean.makespan)
                 .set("makespan", r.makespan)
                 .set("slowdown_pct", 100.0 * (r.makespan / clean.makespan - 1.0))
                 .set("reconverged", first.reconverge_time >= 0.0)
                 .set("goodput_lost_cs", first.goodput_lost)
                 .set("tasks_reexecuted", r.tasks_reexecuted)
                 .set("retransmissions", r.retransmissions)
                 .set("false_positives", r.false_suspicions);
  if (first.reconverge_time >= 0.0) {
    pt.set("reconverge_s", first.reconverge_time);
  }
  if (r.detections > 0) {
    pt.set("detection_latency_s", r.mean_detection_latency());
  }
}

}  // namespace

int main() {
  tlb::bench::JsonReport report(
      "fig12", "Recovery from mid-run perturbations");
  report.config()
      .set("nodes", kNodes)
      .set("cores_per_node", kCores)
      .set("inject_at_fraction", 0.35)
      .set("recover_at_fraction", 0.70);
  std::printf(
      "detector,policy,degree,perturbation,clean_makespan,makespan,"
      "slowdown_pct,reconverge_s,goodput_lost_cs,tasks_reexecuted,"
      "retransmissions,detection_latency_s,false_positives\n");
  const std::vector<int> degrees = tlb::bench::smoke()
                                       ? std::vector<int>{2}
                                       : std::vector<int>{2, 3, 4};
  for (const resil::DetectionMode detector :
       {resil::DetectionMode::Oracle, resil::DetectionMode::Heartbeat}) {
    for (const core::PolicyKind policy :
         {core::PolicyKind::Local, core::PolicyKind::Global}) {
      if (tlb::bench::smoke() && policy == core::PolicyKind::Local) continue;
      for (const int degree : degrees) {
        for (const char* kind : {"slowdown", "link-degrade", "crash"}) {
          run_combo(detector, policy, degree, kind, report);
        }
      }
    }
  }
  return 0;
}
