// Load-imbalance metrics (paper §6.1, Equation 2) and convergence analysis
// of node-imbalance time series (Fig 11).
#pragma once

#include <span>
#include <vector>

#include "trace/step_series.hpp"

namespace tlb::metrics {

/// Equation 2: Imbalance = max(load) / mean(load) >= 1. Returns 1.0 for an
/// empty span or when every load is zero (perfectly balanced by vacuity).
double imbalance(std::span<const double> loads);

/// Node-imbalance time series: at each of `bins` intervals over [t0, t1),
/// the imbalance (Eq. 2) of the per-node busy-core averages in that bin.
/// `node_busy[n]` is the node-n busy series from the trace recorder. Bins
/// where every node is idle report 1.0.
std::vector<double> node_imbalance_series(
    std::span<const trace::StepSeries> node_busy, double t0,
    double t1, int bins);

/// First time (bin start) from which the series stays at or below
/// `threshold` for at least `hold` consecutive bins (and the series never
/// leaves again before its end); returns a negative value when it never
/// converges.
double convergence_time(const std::vector<double>& series, double t0,
                        double t1, double threshold, int hold);

}  // namespace tlb::metrics
