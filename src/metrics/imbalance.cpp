#include "metrics/imbalance.hpp"

#include <algorithm>
#include <cassert>

namespace tlb::metrics {

namespace {

double mean(std::span<const double> v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double max_of(std::span<const double> v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, x);
  return m;
}

}  // namespace

double imbalance(std::span<const double> loads) {
  const double avg = mean(loads);
  if (avg <= 0.0) return 1.0;
  return max_of(loads) / avg;
}

std::vector<double> node_imbalance_series(
    std::span<const trace::StepSeries> node_busy, double t0,
    double t1, int bins) {
  assert(bins > 0 && t1 > t0);
  std::vector<std::vector<double>> sampled;
  sampled.reserve(node_busy.size());
  for (const trace::StepSeries& s : node_busy) {
    sampled.push_back(s.sample(t0, t1, bins));
  }
  std::vector<double> out(static_cast<std::size_t>(bins), 1.0);
  std::vector<double> loads(node_busy.size());
  for (int b = 0; b < bins; ++b) {
    for (std::size_t n = 0; n < node_busy.size(); ++n) {
      loads[n] = sampled[n][static_cast<std::size_t>(b)];
    }
    out[static_cast<std::size_t>(b)] = imbalance(loads);
  }
  return out;
}

double convergence_time(const std::vector<double>& series, double t0,
                        double t1, double threshold, int hold) {
  const int bins = static_cast<int>(series.size());
  if (bins == 0) return -1.0;
  const double width = (t1 - t0) / bins;
  // Last bin index from which the series stays within threshold.
  int start = bins;
  for (int i = bins - 1; i >= 0; --i) {
    if (series[static_cast<std::size_t>(i)] <= threshold) {
      start = i;
    } else {
      break;
    }
  }
  if (start == bins || bins - start < hold) return -1.0;
  return t0 + start * width;
}

}  // namespace tlb::metrics
