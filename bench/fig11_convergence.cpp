// Fig 11: convergence of the node-level imbalance
// (max node busy / average node busy) over time for the synthetic
// benchmark, comparing local vs global policies with and without LeWI,
// plus LeWI-only. Expected shape (paper §7.6):
//   - DROM (either policy) drives the node imbalance close to 1.0;
//   - LeWI-only fluctuates around ~1.2;
//   - the local policy converges faster than the global one (which only
//     updates every 2 s), and LeWI accelerates local convergence.
#include "apps/synthetic.hpp"
#include "bench/common.hpp"
#include "metrics/imbalance.hpp"

namespace {

struct Variant {
  const char* name;
  tlb::core::PolicyKind policy;
  bool lewi;
  bool drom;
};

void scenario(int nodes, double imbalance, tlb::bench::JsonReport& report) {
  using namespace tlb::bench;
  const std::vector<Variant> variants = {
      {"local+lewi", tlb::core::PolicyKind::Local, true, true},
      {"local", tlb::core::PolicyKind::Local, false, true},
      {"global+lewi", tlb::core::PolicyKind::Global, true, true},
      {"global", tlb::core::PolicyKind::Global, false, true},
      {"lewi-only", tlb::core::PolicyKind::None, true, false},
  };

  tlb::apps::SyntheticConfig scfg;
  scfg.appranks = nodes;
  scfg.iterations = smoke() ? 3 : 8;
  scfg.tasks_per_rank = smoke() ? 96 : 480;
  scfg.imbalance = imbalance;

  const int bins = 48;
  std::printf("\n== Fig 11: node imbalance over time, %d nodes, imbalance %.1f ==\n",
              nodes, imbalance);

  std::vector<std::vector<double>> rows;
  std::vector<double> ends;
  for (const auto& v : variants) {
    tlb::core::RuntimeConfig cfg;
    cfg.cluster = tlb::sim::ClusterSpec::homogeneous(nodes, 16);
    cfg.appranks_per_node = 1;
    cfg.degree = std::min(nodes, 4);
    cfg.policy = v.policy;
    cfg.lewi = v.lewi;
    cfg.drom = v.drom;
    tlb::apps::SyntheticWorkload wl(scfg);
    tlb::core::ClusterRuntime rt(cfg);
    const auto r = rt.run(wl);
    std::vector<tlb::trace::StepSeries> node_busy;
    for (int n = 0; n < nodes; ++n) {
      node_busy.push_back(rt.recorder().node_busy(n));
    }
    rows.push_back(tlb::metrics::node_imbalance_series(node_busy, 0.0,
                                                       r.makespan, bins));
    ends.push_back(r.makespan);
  }

  // Time series table: one column per variant (times normalised per run).
  std::printf("%8s", "t/T");
  for (const auto& v : variants) std::printf("%14s", v.name);
  std::printf("\n");
  for (int b = 0; b < bins; ++b) {
    std::printf("%8.3f", (b + 0.5) / bins);
    for (const auto& row : rows) std::printf("%14.3f", row[static_cast<std::size_t>(b)]);
    std::printf("\n");
  }

  std::printf("%8s", "conv");
  std::vector<double> convs;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    // Drop the final two bins: the end-of-run drain empties nodes at
    // slightly different instants, which reads as spurious imbalance.
    std::vector<double> body(rows[i].begin(), rows[i].end() - 2);
    const double t = tlb::metrics::convergence_time(
        body, 0.0, ends[i] * (bins - 2) / bins,
        /*threshold=*/1.15,
        /*hold=*/4);
    convs.push_back(t);
    std::printf("%14s", t < 0 ? "never" : fmt(t, 2).c_str());
  }
  std::printf("   <- first time node imbalance stays <= 1.15\n");
  std::printf("%8s", "tail");
  for (std::size_t i = 0; i < variants.size(); ++i) {
    // Average imbalance over the last third of the run.
    double avg = 0.0;
    for (int b = 2 * bins / 3; b < bins; ++b) avg += rows[i][static_cast<std::size_t>(b)];
    std::printf("%14.3f", avg / (bins / 3));
    auto& pt = report.point(variants[i].name)
                   .set("nodes", nodes)
                   .set("imbalance", imbalance)
                   .set("makespan", ends[i])
                   .set("reconverged", convs[i] >= 0.0)
                   .set("steady_state_imbalance", avg / (bins / 3));
    if (convs[i] >= 0.0) pt.set("convergence_s", convs[i]);
  }
  std::printf("   <- steady-state node imbalance\n");
}

}  // namespace

int main() {
  tlb::bench::JsonReport report(
      "fig11", "Convergence of the node-level imbalance over time");
  report.config().set("cores_per_node", 16).set("threshold", 1.15);
  scenario(2, 2.0, report);
  if (!tlb::bench::smoke()) scenario(4, 4.0, report);
  return 0;
}
