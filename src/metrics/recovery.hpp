// Recovery analysis of perturbed runs (tlb::fault).
//
// The FaultInjector marks every perturbation it injects on the run's
// timeline (trace::MarkKind::FaultInjected). recovery_reports() then
// measures, for each injection mark, how long the allocation policy needed
// to re-converge the node imbalance and how much goodput the perturbation
// cost, from the same per-node busy traces that drive the Fig 11
// convergence analysis.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "trace/recorder.hpp"
#include "trace/step_series.hpp"

namespace tlb::metrics {

/// Post-run measurement of one injected perturbation.
struct RecoveryReport {
  std::string label;
  double at = 0.0;
  /// Seconds from the injection until the node imbalance stays at or
  /// below the threshold for the requested hold; negative when it never
  /// re-converges inside the analysis window.
  double reconverge_time = -1.0;
  /// Busy core-seconds lost after the injection, relative to the average
  /// busy rate observed before it (clamped at zero).
  double goodput_lost = 0.0;
};

/// Measures every FaultInjected mark in `marks` (other kinds are skipped)
/// against the per-node busy traces over [t0, t1) (typically
/// [0, makespan)), one report per injection in mark order. `bins`,
/// `threshold` and `hold` parameterise the imbalance series and the
/// convergence criterion exactly as in node_imbalance_series /
/// convergence_time.
[[nodiscard]] std::vector<RecoveryReport> recovery_reports(
    const std::vector<trace::Mark>& marks,
    std::span<const trace::StepSeries> node_busy, double t0,
    double t1, int bins, double threshold, int hold);

}  // namespace tlb::metrics
