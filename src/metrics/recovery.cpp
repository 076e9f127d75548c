#include "metrics/recovery.hpp"

#include <algorithm>

#include "metrics/imbalance.hpp"

namespace tlb::metrics {

std::vector<RecoveryReport> recovery_reports(
    const std::vector<trace::Mark>& marks,
    std::span<const trace::StepSeries> node_busy, double t0,
    double t1, int bins, double threshold, int hold) {
  std::vector<RecoveryReport> reports;
  if (t1 <= t0 || bins <= 0) return reports;

  auto total_busy_rate = [&](double a, double b) {
    double rate = 0.0;
    for (const trace::StepSeries& s : node_busy) rate += s.average(a, b);
    return rate;
  };

  for (const trace::Mark& m : marks) {
    if (m.kind != trace::MarkKind::FaultInjected) continue;
    RecoveryReport report;
    report.label = m.label;
    report.at = m.t;
    const double a = std::clamp(m.t, t0, t1);

    // Re-convergence: the node-imbalance series from the injection to the
    // end of the window, judged by the Fig 11 criterion.
    if (a < t1) {
      const auto series = node_imbalance_series(node_busy, a, t1, bins);
      const double conv = convergence_time(series, a, t1, threshold, hold);
      report.reconverge_time = conv >= 0.0 ? conv - a : -1.0;
    }

    // Goodput lost: how many busy core-seconds the cluster fell short of
    // its pre-injection rate. A perturbation-free run reports ~0.
    if (a > t0 && a < t1) {
      const double before = total_busy_rate(t0, a);
      const double after = total_busy_rate(a, t1);
      report.goodput_lost = std::max(0.0, (before - after) * (t1 - a));
    }
    reports.push_back(std::move(report));
  }
  return reports;
}

}  // namespace tlb::metrics
