// Fig 15 (extension): open-loop service traffic and overload control.
//
// Every other figure measures one batch execution by makespan. Here the
// cluster is a *service*: app instances arrive continuously from a seeded
// open-loop process (tlb::svc), queue for node partitions, and run as full
// ClusterRuntime executions multiplexed on one simulated clock. The
// question is what happens as the offered load crosses the capacity of
// the cluster:
//
//   - admission off: every arrival is queued. Below saturation the queue
//     is short and goodput tracks the offered load; beyond it the backlog
//     (and thus latency) grows without bound over the horizon, deadlines
//     blow through, and goodput *collapses* — classic congestion collapse
//     of an open-loop system.
//   - admission on (Envoy-style overload control: token bucket, gradient
//     concurrency limit, retry budget, shed-by-deadline-class): excess
//     arrivals are shed early, the queue stays bounded, and goodput holds
//     near capacity with a bounded latency tail — graceful degradation.
//
// Sweep: offered load in multiples of the measured saturation rate, with
// admission off/on per point. The saturation rate is calibrated from a
// lightly-loaded probe run: rate* = nodes / E[node-seconds per job]
// (partition-occupancy bound). Two tenant templates share the cluster —
// a latency-sensitive "interactive" class (small partitions, tight SLO)
// and a "batch" class (bigger partitions, loose SLO) that admission sheds
// first. Deterministic: one seed fixes the arrival sequence, and the
// sequence is independent of the admission decisions by construction, so
// both arms of a point see byte-identical offered traffic.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "svc/job_manager.hpp"

namespace {

using namespace tlb;

constexpr int kNodes = 8;
constexpr int kCores = 8;

std::vector<svc::JobTemplate> tenant_templates() {
  svc::JobTemplate interactive;
  interactive.name = "interactive";
  interactive.nodes = 2;
  interactive.appranks_per_node = 1;
  interactive.degree = 2;
  interactive.iterations = 2;
  interactive.tasks_per_rank = 32;
  interactive.base_duration = 0.020;
  interactive.imbalance = 1.5;
  interactive.deadline_class = 0;
  interactive.deadline = 1.5;
  interactive.weight = 4.0;

  svc::JobTemplate batch;
  batch.name = "batch";
  batch.nodes = 4;
  batch.appranks_per_node = 1;
  batch.degree = 2;
  batch.iterations = 4;
  batch.tasks_per_rank = 48;
  batch.base_duration = 0.025;
  batch.imbalance = 2.0;
  batch.deadline_class = 2;
  batch.deadline = 10.0;
  batch.weight = 1.0;
  return {interactive, batch};
}

core::RuntimeConfig base_config(double rate, double horizon, bool admission) {
  core::RuntimeConfig cfg;
  cfg.cluster = sim::ClusterSpec::homogeneous(kNodes, kCores);
  cfg.appranks_per_node = 1;  // overridden per job from the template
  cfg.policy = core::PolicyKind::Global;
  cfg.seed = 2024;
  cfg.record_traces = false;
  cfg.svc.enabled = true;
  cfg.svc.templates = tenant_templates();
  cfg.svc.arrivals.shape = svc::ArrivalShape::Poisson;
  cfg.svc.arrivals.rate = rate;
  cfg.svc.arrivals.horizon = horizon;
  cfg.svc.fabric_pressure = 0.02;
  cfg.svc.admission.enabled = admission;
  return cfg;
}

/// Envoy-style knobs, scaled to the calibrated saturation rate.
void tune_admission(svc::AdmissionConfig& adm, double saturation_rate) {
  adm.bucket_rate = 2.0 * saturation_rate;  // only extreme bursts hit it
  adm.bucket_burst = 16.0;
  adm.initial_limit = 6;
  adm.min_limit = 2;
  adm.max_limit = 12;
  adm.tolerance = 2.5;
  adm.update_window = 8;
  adm.class_fractions = {1.0, 0.85, 0.6};
  adm.retry_backoff = 0.3;
  adm.retry_max = 2;
}

/// Partition-occupancy saturation rate from a lightly-loaded probe run:
/// jobs/s the cluster sustains when every node-second is spent serving.
double calibrate_saturation(double horizon) {
  core::RuntimeConfig cfg = base_config(/*rate=*/2.0, horizon,
                                        /*admission=*/false);
  svc::JobManager probe(cfg);
  const svc::SvcResult r = probe.run();
  double node_seconds = 0.0;
  std::uint64_t completed = 0;
  for (const svc::JobRecord& rec : probe.jobs()) {
    if (rec.outcome != svc::JobOutcome::Completed) continue;
    const auto& tpl = cfg.svc.templates[static_cast<std::size_t>(
        rec.template_index)];
    node_seconds += tpl.nodes * rec.service();
    ++completed;
  }
  if (completed == 0 || node_seconds <= 0.0) return 4.0;  // defensive
  const double per_job = node_seconds / static_cast<double>(completed);
  std::printf(
      "calibration: %llu jobs, %.3f node-s/job => saturation ~%.2f jobs/s\n",
      static_cast<unsigned long long>(completed), per_job,
      kNodes / per_job);
  (void)r;
  return kNodes / per_job;
}

struct ArmResult {
  svc::SvcResult res;
  double rate = 0.0;
};

ArmResult run_arm(double rate, double horizon, bool admission,
                  double saturation) {
  core::RuntimeConfig cfg = base_config(rate, horizon, admission);
  if (admission) tune_admission(cfg.svc.admission, saturation);
  svc::JobManager mgr(cfg);
  ArmResult out;
  out.res = mgr.run();
  out.rate = rate;
  return out;
}

void report_point(bench::JsonReport& report, const std::string& series,
                  double multiplier, const ArmResult& arm) {
  const svc::SvcResult& r = arm.res;
  bench::JsonObject& p = report.point(series);
  p.set("load_multiplier", multiplier)
      .set("offered_rate", arm.rate)
      .set("arrived", r.arrived)
      .set("admitted", r.admitted)
      .set("completed", r.completed)
      .set("shed", r.shed)
      .set("retries", r.retries)
      .set("slo_met", r.slo_met)
      .set("goodput", r.goodput)
      .set("goodput_norm", arm.rate > 0.0 ? r.goodput / arm.rate : 0.0)
      .set("shed_rate", r.shed_rate)
      .set("latency_p50_s", r.latency_p50)
      .set("latency_p99_s", r.latency_p99)
      .set("queue_wait_p99_s", r.queue_wait_p99)
      .set("service_mean_s", r.service_mean)
      .set("final_limit", r.final_limit)
      .set("elapsed_s", r.elapsed);
  for (const svc::SvcClassRow& c : r.classes) {
    const std::string k = "class" + std::to_string(c.deadline_class);
    p.set(k + "_arrived", c.arrived)
        .set(k + "_slo_met", c.slo_met)
        .set(k + "_shed", c.shed);
  }
}

}  // namespace

int main() {
  using namespace tlb::bench;
  const bool is_smoke = smoke();
  const double horizon = is_smoke ? 4.0 : 30.0;
  const double calib_horizon = is_smoke ? 4.0 : 10.0;
  const std::vector<double> multipliers =
      is_smoke ? std::vector<double>{0.8, 1.5}
               : std::vector<double>{0.5, 0.8, 1.0, 1.2, 1.5, 2.0};

  std::printf(
      "== Fig 15: open-loop service traffic x admission control ==\n"
      "(%d nodes x %d cores; interactive (2-node, SLO 1.5s) + batch\n"
      " (4-node, SLO 10s) tenants, Poisson arrivals over %.0fs; admission =\n"
      " token bucket + gradient concurrency limit + retry budget + shed by\n"
      " deadline class)\n",
      kNodes, kCores, horizon);

  JsonReport report("fig15", "Service traffic: overload and admission control");
  const double saturation = calibrate_saturation(calib_horizon);
  report.config()
      .set("nodes", kNodes)
      .set("cores_per_node", kCores)
      .set("horizon_s", horizon)
      .set("saturation_rate", saturation)
      .set("arrival_shape", "poisson")
      .set("fabric_pressure", 0.02)
      .set("templates", "interactive(2n,slo1.5s,w4) batch(4n,slo10s,w1)");

  print_header("Fig 15: offered load sweep",
               {"load", "arm", "arrived", "done", "shed", "goodput", "g/rate",
                "p50[s]", "p99[s]", "limit"});

  bool graceful = true;
  for (double m : multipliers) {
    const double rate = m * saturation;
    const ArmResult off = run_arm(rate, horizon, false, saturation);
    const ArmResult on = run_arm(rate, horizon, true, saturation);
    for (const auto* arm : {&off, &on}) {
      const bool is_on = arm == &on;
      print_cell(fmt(m, 2));
      print_cell(is_on ? "adm-on" : "adm-off");
      print_cell(static_cast<int>(arm->res.arrived));
      print_cell(static_cast<int>(arm->res.completed));
      print_cell(static_cast<int>(arm->res.shed));
      print_cell(fmt(arm->res.goodput, 2));
      print_cell(fmt(arm->rate > 0.0 ? arm->res.goodput / arm->rate : 0.0, 2));
      print_cell(fmt(arm->res.latency_p50, 2));
      print_cell(fmt(arm->res.latency_p99, 2));
      print_cell(arm->res.final_limit);
      end_row();
    }
    report_point(report, "admission off", m, off);
    report_point(report, "admission on", m, on);
    if (m >= 1.2 && on.res.goodput <= off.res.goodput) graceful = false;
  }

  // The headline claim: past saturation, overload control must beat the
  // open queue on goodput (shed early instead of missing every deadline).
  // The smoke horizon is too short for the baseline to collapse, so only
  // a full run is judged.
  if (is_smoke) {
    std::printf("\noverload verdict: not judged (smoke run, %.0f s horizon)\n",
                horizon);
  } else {
    std::printf("\noverload verdict: %s\n",
                graceful ? "graceful degradation (admission-on goodput holds "
                           "above the collapsing baseline)"
                         : "WARNING: admission-on did not beat the baseline "
                           "past saturation");
  }

  if (!is_smoke) {
    // One bursty demonstration at nominal saturation: the MMPP bursts
    // push instantaneous load far past capacity even though the mean is
    // exactly rate*, so the admission arm sheds during bursts while the
    // open queue accumulates them.
    print_header("Fig 15b: bursty arrivals at 1.0x saturation",
                 {"shape", "arm", "arrived", "done", "shed", "goodput",
                  "p99[s]"});
    for (const bool admission : {false, true}) {
      core::RuntimeConfig cfg = base_config(saturation, horizon, admission);
      cfg.svc.arrivals.shape = tlb::svc::ArrivalShape::Bursty;
      if (admission) tune_admission(cfg.svc.admission, saturation);
      tlb::svc::JobManager mgr(cfg);
      const tlb::svc::SvcResult r = mgr.run();
      print_cell("bursty");
      print_cell(admission ? "adm-on" : "adm-off");
      print_cell(static_cast<int>(r.arrived));
      print_cell(static_cast<int>(r.completed));
      print_cell(static_cast<int>(r.shed));
      print_cell(fmt(r.goodput, 2));
      print_cell(fmt(r.latency_p99, 2));
      end_row();
      ArmResult arm;
      arm.res = r;
      arm.rate = saturation;
      report_point(report, admission ? "bursty admission on"
                                     : "bursty admission off",
                   1.0, arm);
    }
  }
  return 0;
}
