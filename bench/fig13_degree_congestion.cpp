// Fig 13 (extension): offloading degree vs interconnect congestion.
//
// The paper's analytic cost model prices every transfer as if it had the
// wire to itself, so raising the offloading degree is free on the network
// side. With the contention-aware fabric (RuntimeConfig::net) enabled the
// trade-off becomes visible: more helpers means more concurrent payload
// flows crammed through the shared leaf uplinks of an oversubscribed
// fat-tree, so flow completion times stretch and the uplinks saturate.
//
// Sweep: offloading degree x payload-per-task on the synthetic benchmark
// (16 nodes x 16 cores, imbalance 2.0, global policy) over a 4:1
// oversubscribed two-level fat-tree (4 nodes per leaf, one spine, uplink
// bandwidth == one NIC). Per combination we run the same configuration
// twice — analytic model and fabric — and report:
//   - makespan under both models and the contention penalty between them;
//   - flow-completion-time p50/p99 (the congestion tail);
//   - peak utilization over the leaf uplinks;
//   - bytes moved and the offloaded work fraction.
//
// Expected shape: at small payloads the fabric is invisible (penalty ~0,
// p99 ~ p50) for every degree; as payload grows the penalty and the FCT
// tail rise with the degree, the uplinks pin at 1.0, and the marginal
// benefit of another helper shrinks — degree 4+ buys little balance but
// pays real congestion. The numbers are deterministic (fixed seed, no
// RNG in the fabric).
#include <cinttypes>

#include "apps/synthetic.hpp"
#include "bench/common.hpp"

namespace {

using namespace tlb;

constexpr int kNodes = 16;
constexpr int kCores = 16;
// A deliberately narrow fabric (200 MB/s NICs) so payload streaming is
// commensurable with the ~20 ms tasks; the shape, not the absolute
// bandwidth, is the point.
constexpr double kNicBandwidth = 2e8;

apps::SyntheticConfig workload_config(std::uint64_t payload) {
  apps::SyntheticConfig cfg;
  cfg.appranks = kNodes;
  // Smoke keeps the full per-iteration volume (a shorter run never crosses
  // the solver period, so no offloading — and thus no flows — would occur)
  // and trims iterations instead.
  cfg.iterations = bench::smoke() ? 2 : 4;
  cfg.tasks_per_rank = 96;
  cfg.base_duration = 0.020;
  cfg.imbalance = 2.0;
  cfg.bytes_per_task = payload;
  return cfg;
}

core::RuntimeConfig runtime_config(int degree, bool fabric) {
  core::RuntimeConfig cfg;
  cfg.cluster = sim::ClusterSpec::homogeneous(kNodes, kCores);
  cfg.cluster.link.bandwidth = kNicBandwidth;
  cfg.appranks_per_node = 1;
  cfg.degree = degree;
  cfg.policy = core::PolicyKind::Global;
  cfg.net.enabled = fabric;
  cfg.net.leaf_radix = 4;
  cfg.net.spines = 1;
  // Uplink == one NIC while each leaf aggregates four: 4:1 oversubscribed.
  cfg.net.uplink_bandwidth = kNicBandwidth;
  return cfg;
}

std::string payload_name(std::uint64_t payload) {
  if (payload >= (1u << 20)) {
    return std::to_string(payload >> 20) + " MiB";
  }
  return std::to_string(payload >> 10) + " KiB";
}

void sweep_payload(std::uint64_t payload, const std::vector<int>& degrees,
                   bench::JsonReport& report) {
  using namespace tlb::bench;
  print_header("Fig 13: degree vs congestion, payload " + payload_name(payload),
               {"degree", "analytic[s]", "fabric[s]", "penalty%", "fct_p50[ms]",
                "fct_p99[ms]", "uplink_peak", "moved[MiB]", "offload%"});

  for (int degree : degrees) {
    apps::SyntheticWorkload wl_a(workload_config(payload));
    const auto analytic =
        core::ClusterRuntime(runtime_config(degree, false)).run(wl_a);

    apps::SyntheticWorkload wl_f(workload_config(payload));
    core::ClusterRuntime rt(runtime_config(degree, true));
    const auto r = rt.run(wl_f);

    const net::Fabric* fabric = rt.fabric();
    double uplink_peak = 0.0;
    for (net::LinkId l : fabric->topology().leaf_uplinks()) {
      if (fabric->peak_utilization(l) > uplink_peak) {
        uplink_peak = fabric->peak_utilization(l);
      }
    }
    const double p50 = fabric->fct_quantile(0.5);
    const double p99 = fabric->fct_quantile(0.99);
    const double penalty = 100.0 * (r.makespan / analytic.makespan - 1.0);
    const double moved_mib =
        static_cast<double>(r.transfer_bytes) / (1024.0 * 1024.0);

    print_cell(degree);
    print_cell(analytic.makespan);
    print_cell(r.makespan);
    print_cell(fmt(penalty, 1));
    print_cell(1e3 * p50);
    print_cell(1e3 * p99);
    print_cell(fmt(uplink_peak, 2));
    print_cell(fmt(moved_mib, 1));
    print_cell(fmt(100.0 * r.offload_fraction(), 1));
    end_row();

    report.point("payload " + payload_name(payload))
        .set("degree", degree)
        .set("payload_bytes", payload)
        .set("makespan_analytic", analytic.makespan)
        .set("makespan_fabric", r.makespan)
        .set("contention_penalty_pct", penalty)
        .set("fct_p50_s", p50)
        .set("fct_p99_s", p99)
        .set("uplink_peak_utilization", uplink_peak)
        .set("transfer_bytes", r.transfer_bytes)
        .set("flows_completed", fabric->flows_completed())
        .set("offload_fraction", r.offload_fraction());
  }
}

}  // namespace

int main() {
  std::printf(
      "== Fig 13: offloading degree x interconnect congestion ==\n"
      "(synthetic, %d nodes x %d cores, imbalance 2.0, global policy;\n"
      " 4:1 oversubscribed fat-tree, %.0f MB/s NICs; fabric = max-min fair\n"
      " shared-link model, analytic = uncontended latency+size/bandwidth)\n",
      kNodes, kCores, kNicBandwidth / 1e6);

  tlb::bench::JsonReport report(
      "fig13", "Offloading degree vs interconnect congestion");
  report.config()
      .set("nodes", kNodes)
      .set("cores_per_node", kCores)
      .set("nic_bandwidth", kNicBandwidth)
      .set("uplink_bandwidth", kNicBandwidth)
      .set("leaf_radix", 4)
      .set("spines", 1)
      .set("imbalance", 2.0)
      .set("policy", "global");

  const std::vector<int> degrees =
      tlb::bench::smoke() ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  std::vector<std::uint64_t> payloads = {256u << 10, 1u << 20, 4u << 20};
  if (tlb::bench::smoke()) payloads = {256u << 10};
  for (std::uint64_t payload : payloads) {
    sweep_payload(payload, degrees, report);
  }
  return 0;
}
