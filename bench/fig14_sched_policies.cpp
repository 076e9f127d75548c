// Fig 14 (extension): scheduler policy x imbalance x oversubscription,
// plus a node-count scaling arm for the hierarchical scheduler.
//
// Fig 13 showed the *cost* of congestion-blind offloading; this figure
// asks whether the scheduler can buy the cost back. Sweep the five
// policies (locality = the paper's §5.5 rule, congestion = link-load +
// per-helper FCT feedback, waittime = Samfass-style offload throttling on
// observed task waits, adaptive = online portfolio selection among the
// three with hysteresis, hier = two-level scheduling over per-node load
// summaries) over imbalance {1.5, 2.5} and fat-tree oversubscription
// {1:1, 4:1} on the same 16-node machine and heavy-payload synthetic
// workload as Fig 13.
//
// Reported per combination: makespan and its delta vs the locality
// baseline, the policy's steered/suppressed offload counters, the
// adaptive portfolio's mode-switch count, the deterministic scheduling
// cost (state probes per decision — the O(cores) global state flat
// policies walk vs the O(1) summary reads of hier), the flow
// completion-time p99 and peak leaf-uplink utilization.
//
// Expected shape: no fixed policy wins every corner (that is the point);
// the adaptive portfolio probes each mode for one barrier-paced window,
// elects the measured-fastest and exploits it, so its acceptance bar is
// *regret*: lowest mean regret against the per-corner best policy, and
// outright wins where the best mode is reachable from a warm start. (A
// probe cannot always reach a mode's distant equilibrium — waittime's
// suppress->low-waits->suppress fixed point is invisible to a short
// probe that inherits warm high-wait estimates — so per-corner
// domination is not achievable by any online selector.) hier trades a
// little placement quality for a per-decision cost that stays flat as
// the cluster grows — the scaling arm at the end measures exactly that
// (state probes per decision and wall-clock decisions/s for locality vs
// hier as nodes double). All simulated results are deterministic (fixed
// seed, no RNG in fabric or policies); only the wall-clock decisions/s
// column varies between hosts.
#include <chrono>
#include <cinttypes>

#include "apps/synthetic.hpp"
#include "bench/common.hpp"
#include "dlb/report.hpp"
#include "hier/hier_scheduler.hpp"

namespace {

using namespace tlb;

constexpr int kNodes = 16;
constexpr int kCores = 16;
constexpr int kDegree = 4;
// Narrow NICs (200 MB/s) so streaming a 4 MiB task input is commensurable
// with the ~20 ms tasks (see fig13).
constexpr double kNicBandwidth = 2e8;
constexpr std::uint64_t kPayload = 4u << 20;

const char* const kPolicies[] = {"locality", "congestion", "waittime",
                                 "adaptive", "hier"};

apps::SyntheticConfig workload_config(double imbalance, int appranks) {
  apps::SyntheticConfig cfg;
  cfg.appranks = appranks;
  // Enough iterations that an online-adaptive policy has a horizon: the
  // portfolio spends the first three probing (one barrier-paced window
  // per mode) and exploits the elected mode for the rest.
  cfg.iterations = bench::smoke() ? 8 : 16;
  cfg.tasks_per_rank = 96;
  cfg.base_duration = 0.020;
  cfg.imbalance = imbalance;
  cfg.bytes_per_task = kPayload;
  return cfg;
}

core::RuntimeConfig runtime_config(const std::string& policy,
                                   int oversubscription, int nodes) {
  // "hier(no-res)" = the two-level scheduler with the residency
  // tie-break disabled — the pre-residency balancer, kept as a scaling
  // ablation (fig 14b) to show what the signal buys at 32-64 nodes.
  const bool hier_no_residency = policy == "hier(no-res)";
  core::RuntimeConfig cfg;
  cfg.cluster = sim::ClusterSpec::homogeneous(nodes, kCores);
  cfg.cluster.link.bandwidth = kNicBandwidth;
  cfg.appranks_per_node = 1;
  cfg.degree = kDegree;
  cfg.policy = core::PolicyKind::Global;
  cfg.net.enabled = true;
  cfg.net.leaf_radix = 4;
  cfg.net.spines = 1;
  // leaf_radix NICs share one uplink: uplink = radix * nic / oversub.
  cfg.net.uplink_bandwidth =
      cfg.net.leaf_radix * kNicBandwidth / oversubscription;
  if (hier_no_residency) {
    cfg.sched.policy = "hier";
    cfg.hier.residency_band = 0.0;
  } else {
    cfg.sched.policy = policy;  // "hier" resolves to the two-level scheduler
  }
  return cfg;
}

void sweep(double imbalance, int oversubscription, bench::JsonReport& report,
           bool print_sched_report) {
  using namespace tlb::bench;
  char title[128];
  std::snprintf(title, sizeof(title),
                "Fig 14: policies, imbalance %.1f, %d:1 fat-tree", imbalance,
                oversubscription);
  print_header(title, {"policy", "makespan[s]", "vs locality%", "steered",
                       "suppressed", "switches", "probes/dec", "fct_p99[ms]",
                       "uplink_peak"});

  double locality_makespan = 0.0;
  std::string sched_report;
  for (const std::string policy : kPolicies) {
    apps::SyntheticWorkload wl(workload_config(imbalance, kNodes));
    core::ClusterRuntime rt(runtime_config(policy, oversubscription, kNodes));
    const auto r = rt.run(wl);
    if (policy == "locality") locality_makespan = r.makespan;
    const double delta = 100.0 * (r.makespan / locality_makespan - 1.0);
    const double probes_per_decision =
        r.sched.decisions > 0
            ? static_cast<double>(r.sched.state_touched) /
                  static_cast<double>(r.sched.decisions)
            : 0.0;

    const net::Fabric* fabric = rt.fabric();
    double uplink_peak = 0.0;
    for (net::LinkId l : fabric->topology().leaf_uplinks()) {
      uplink_peak = std::max(uplink_peak, fabric->peak_utilization(l));
    }
    const double p99 = fabric->fct_quantile(0.99);

    print_cell(policy);
    print_cell(r.makespan);
    print_cell(fmt(delta, 1));
    print_cell(static_cast<int>(r.sched.offloads_steered));
    print_cell(static_cast<int>(r.sched.offloads_suppressed));
    print_cell(static_cast<int>(r.sched.switches));
    print_cell(fmt(probes_per_decision, 1));
    print_cell(1e3 * p99);
    print_cell(fmt(uplink_peak, 2));
    end_row();

    char series[64];
    std::snprintf(series, sizeof(series), "imbalance %.1f, %d:1", imbalance,
                  oversubscription);
    report.point(series)
        .set("policy", policy)
        .set("imbalance", imbalance)
        .set("oversubscription", oversubscription)
        .set("makespan", r.makespan)
        .set("vs_locality_pct", delta)
        .set("offloads_considered", r.sched.offloads_considered)
        .set("offloads_steered", r.sched.offloads_steered)
        .set("offloads_suppressed", r.sched.offloads_suppressed)
        .set("sched_switches", r.sched.switches)
        .set("state_touched", r.sched.state_touched)
        .set("state_per_decision", probes_per_decision)
        .set("fct_p99_s", p99)
        .set("uplink_peak_utilization", uplink_peak)
        .set("transfer_bytes", r.transfer_bytes)
        .set("offload_fraction", r.offload_fraction());

    if (print_sched_report && policy == "adaptive") {
      sched_report = dlb::sched_report(r.sched_policy, r.sched);
    }
  }
  if (!sched_report.empty()) std::printf("\n%s", sched_report.c_str());
}

// Scaling arm: does per-decision scheduling cost stay bounded as the
// cluster grows? Flat policies pay the in-flight throttle's owned-core
// registry walk per candidate (grows with cores); hier reads O(degree)
// compact summaries and amortizes the walk over the summary period. The
// state-probe counter is deterministic; decisions/s of wall time is the
// host-dependent sanity check of the same claim.
void scaling_arm(bench::JsonReport& report) {
  using namespace tlb::bench;
  print_header("Fig 14b: scheduling cost vs node count (imbalance 2.5, 4:1)",
               {"nodes", "policy", "makespan[s]", "probes/dec",
                "decisions/s", "summary_refresh"});

  const std::vector<int> node_counts = bench::smoke()
                                           ? std::vector<int>{8, 16}
                                           : std::vector<int>{8, 16, 32, 64};
  for (const int nodes : node_counts) {
    for (const std::string policy : {"locality", "hier", "hier(no-res)"}) {
      apps::SyntheticWorkload wl(workload_config(2.5, nodes));
      core::ClusterRuntime rt(runtime_config(policy, 4, nodes));
      const auto t0 = std::chrono::steady_clock::now();
      const auto r = rt.run(wl);
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      const double probes_per_decision =
          r.sched.decisions > 0
              ? static_cast<double>(r.sched.state_touched) /
                    static_cast<double>(r.sched.decisions)
              : 0.0;
      const double decisions_per_sec =
          wall > 0.0 ? static_cast<double>(r.sched.decisions) / wall : 0.0;
      const auto* hier_sched =
          dynamic_cast<const hier::HierScheduler*>(&rt.scheduler());
      const double refreshes =
          hier_sched != nullptr
              ? static_cast<double>(hier_sched->summary_refreshes())
              : 0.0;

      print_cell(nodes);
      print_cell(policy);
      print_cell(r.makespan);
      print_cell(fmt(probes_per_decision, 1));
      print_cell(fmt(decisions_per_sec, 0));
      print_cell(static_cast<int>(refreshes));
      end_row();

      report.point("scaling")
          .set("policy", policy)
          .set("nodes", nodes)
          .set("makespan", r.makespan)
          .set("decisions", r.sched.decisions)
          .set("state_touched", r.sched.state_touched)
          .set("state_per_decision", probes_per_decision)
          .set("decisions_per_sec", decisions_per_sec)
          .set("summary_refreshes", refreshes);
    }
  }
}

}  // namespace

int main() {
  std::printf(
      "== Fig 14: scheduler policies x imbalance x oversubscription ==\n"
      "(synthetic, %d nodes x %d cores, degree %d, %d MiB/task, global\n"
      " policy; two-level fat-tree, %.0f MB/s NICs; policies: locality =\n"
      " paper §5.5, congestion = link-load + FCT feedback, waittime =\n"
      " offload throttling on observed waits, adaptive = online portfolio\n"
      " over the three, hier = two-level scheduling over node summaries)\n",
      kNodes, kCores, kDegree, static_cast<int>(kPayload >> 20),
      kNicBandwidth / 1e6);

  tlb::bench::JsonReport report(
      "fig14", "Scheduler policies under congestion and imbalance");
  report.config()
      .set("nodes", kNodes)
      .set("cores_per_node", kCores)
      .set("degree", kDegree)
      .set("payload_bytes", kPayload)
      .set("nic_bandwidth", kNicBandwidth)
      .set("leaf_radix", 4)
      .set("spines", 1)
      .set("policy", "global");

  const std::vector<double> imbalances =
      tlb::bench::smoke() ? std::vector<double>{2.5}
                          : std::vector<double>{1.5, 2.5};
  const std::vector<int> oversubscriptions =
      tlb::bench::smoke() ? std::vector<int>{4} : std::vector<int>{1, 4};
  for (double imb : imbalances) {
    for (int oversub : oversubscriptions) {
      // The portfolio counters are most interesting on the hardest
      // configuration; print the full sched report there.
      const bool last = imb == imbalances.back() &&
                        oversub == oversubscriptions.back();
      sweep(imb, oversub, report, last);
    }
  }
  scaling_arm(report);
  return 0;
}
