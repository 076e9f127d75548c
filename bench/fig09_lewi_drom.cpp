// Fig 9: role of LeWI and DROM on MicroPP traces, four appranks on four
// nodes, offloading degree 2. Expected shape (paper §7.4):
//   - LeWI only: borrowed remote cores shorten the run to ~83% of the
//     baseline (borrowed-core use stays well under 100% - §5.5);
//   - DROM only: ownership converges to the steady imbalance, ~65%;
//   - LeWI + DROM: best of both (LeWI reacts immediately, DROM locks in
//     the steady state).
#include "apps/micropp/workload.hpp"
#include "bench/common.hpp"
#include "obs/critical_path.hpp"
#include "obs/flame.hpp"
#include "obs/pop.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/paraver.hpp"
#include "trace/recorder.hpp"

namespace {

tlb::apps::micropp::MicroPPConfig micropp4() {
  tlb::apps::micropp::MicroPPConfig cfg;
  cfg.appranks = 4;
  cfg.iterations = tlb::bench::smoke() ? 2 : 12;
  cfg.elements_per_rank = tlb::bench::smoke() ? 1024 : 8192;
  cfg.elements_per_task = 16;
  cfg.heavy_rank_fraction = 0.25;  // apprank 0 is the heavy one
  cfg.nonlinear_fraction_heavy = 0.45;
  cfg.nonlinear_fraction_light = 0.05;
  cfg.core_flops_rate = 5e7;
  return cfg;
}

struct Variant {
  const char* name;
  bool lewi;
  bool drom;
};

}  // namespace

int main() {
  using namespace tlb::bench;
  const std::vector<Variant> variants = {
      {"baseline", false, false},
      {"lewi-only", true, false},
      {"drom-only", false, true},
      {"lewi+drom", true, true},
  };
  std::printf("== Fig 9: MicroPP, 4 appranks on 4 nodes, degree 2 ==\n");
  JsonReport report("fig09", "Role of LeWI and DROM on MicroPP");
  report.config().set("nodes", 4).set("cores_per_node", 48).set("degree", 2);

  double baseline = 0.0;
  for (const auto& v : variants) {
    tlb::core::RuntimeConfig cfg;
    cfg.cluster = marenostrum4(4);
    cfg.appranks_per_node = 1;
    cfg.degree = 2;
    cfg.lewi = v.lewi;
    cfg.drom = v.drom;
    cfg.policy = v.drom ? tlb::core::PolicyKind::Global
                        : tlb::core::PolicyKind::None;
    cfg.obs.spans = true;  // pure recording — schedules stay bit-identical
    tlb::apps::micropp::MicroPPWorkload wl(micropp4());
    tlb::core::ClusterRuntime rt(cfg);
    const auto r = rt.run(wl);
    if (baseline == 0.0) baseline = r.makespan;

    std::printf("\n-- %s: %.3f s (%.0f%% of baseline), offloaded %.1f%%, "
                "lends %llu borrows %llu drom-moves %llu\n",
                v.name, r.makespan, 100.0 * r.makespan / baseline,
                100.0 * r.offload_fraction(),
                static_cast<unsigned long long>(r.lewi_lends),
                static_cast<unsigned long long>(r.lewi_borrows),
                static_cast<unsigned long long>(r.drom_moves));
    const tlb::obs::PopReport pop = rt.pop();
    report.point(v.name)
        .set("makespan", r.makespan)
        .set("vs_baseline", r.makespan / baseline)
        .set("offload_fraction", r.offload_fraction())
        .set("lewi_lends", r.lewi_lends)
        .set("lewi_borrows", r.lewi_borrows)
        .set("drom_moves", r.drom_moves)
        .set("pop_parallel_efficiency", pop.parallel_efficiency)
        .set("pop_load_balance", pop.load_balance)
        .set("pop_communication_efficiency", pop.communication_efficiency)
        .set("pop_transfer_efficiency", pop.transfer_efficiency);

    std::fputs(tlb::obs::render_pop(pop).c_str(), stdout);
    const tlb::obs::CriticalPath cp = tlb::obs::critical_path(*rt.spans());
    std::fputs(tlb::obs::render_critical_path(cp).c_str(), stdout);

    if (const char* dir = trace_output_dir()) {
      const std::string stem = std::string(dir) + "/fig09_" + v.name;
      write_text_file(
          stem + ".trace.json",
          tlb::trace::chrome_trace_json(*rt.spans(), rt.recorder()));
      // Collapsed stacks: feed to flamegraph.pl or speedscope.app to see
      // where simulated time went (queue / transfer / exec per node).
      write_text_file(stem + ".flame.folded",
                      tlb::obs::collapsed_stacks_text(*rt.spans()));
      write_text_file(stem + ".prv",
                      tlb::trace::to_paraver(rt.recorder(), r.makespan));
      write_text_file(stem + ".row",
                      tlb::trace::paraver_row_labels(rt.recorder()));
      write_text_file(stem + ".pcf", tlb::trace::paraver_pcf());
    }

    const auto& rec = rt.recorder();
    std::printf("   busy cores per (node, apprank), peak=48:\n");
    std::vector<std::pair<std::string, const tlb::trace::StepSeries*>> rows;
    for (int n = 0; n < 4; ++n) {
      for (int a = 0; a < 4; ++a) {
        if (rec.busy(n, a).empty() && a != n) continue;  // skip silent rows
        rows.emplace_back("   n" + std::to_string(n) + " a" + std::to_string(a),
                          &rec.busy(n, a));
      }
    }
    std::fputs(tlb::trace::ascii_timeline(rows, 0, r.makespan, 72, 48.0).c_str(),
               stdout);
    std::printf("   owned cores per (node, apprank), peak=48:\n");
    rows.clear();
    for (int n = 0; n < 4; ++n) {
      for (int a = 0; a < 4; ++a) {
        if (rec.owned(n, a).empty()) continue;
        rows.emplace_back("   n" + std::to_string(n) + " a" + std::to_string(a),
                          &rec.owned(n, a));
      }
    }
    std::fputs(tlb::trace::ascii_timeline(rows, 0, r.makespan, 72, 48.0).c_str(),
               stdout);
  }
  return 0;
}
