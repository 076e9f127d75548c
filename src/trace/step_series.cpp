#include "trace/step_series.hpp"

#include <algorithm>
#include <cassert>

namespace tlb::trace {

void StepSeries::add(sim::SimTime t, double delta) {
  const double prev = points_.empty() ? 0.0 : points_.back().second;
  set(t, prev + delta);
}

void StepSeries::set(sim::SimTime t, double value) {
  if (!points_.empty()) {
    assert(t >= points_.back().first && "series times must be non-decreasing");
    if (points_.back().first == t) {
      // Overwrite; back to the value before this instant means no change.
      const std::size_t n = points_.size();
      if (n >= 2 && points_[n - 2].second == value) {
        points_.pop_back();
      } else {
        points_.back().second = value;
      }
      return;
    }
    if (points_.back().second == value) return;  // no change
  }
  points_.emplace_back(t, value);
}

double StepSeries::value_at(sim::SimTime t) const {
  // Last point with time <= t.
  auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](sim::SimTime x, const auto& p) { return x < p.first; });
  if (it == points_.begin()) return 0.0;
  return std::prev(it)->second;
}

double StepSeries::average(sim::SimTime t0, sim::SimTime t1) const {
  assert(t1 >= t0);
  if (t1 <= t0) return value_at(t0);
  double integral = 0.0;
  double current = value_at(t0);
  sim::SimTime cursor = t0;
  auto it = std::upper_bound(
      points_.begin(), points_.end(), t0,
      [](sim::SimTime x, const auto& p) { return x < p.first; });
  for (; it != points_.end() && it->first < t1; ++it) {
    integral += current * (it->first - cursor);
    cursor = it->first;
    current = it->second;
  }
  integral += current * (t1 - cursor);
  return integral / (t1 - t0);
}

std::vector<double> StepSeries::sample(sim::SimTime t0, sim::SimTime t1,
                                       int bins) const {
  assert(bins > 0 && t1 > t0);
  std::vector<double> out(static_cast<std::size_t>(bins));
  const double width = (t1 - t0) / bins;
  for (int i = 0; i < bins; ++i) {
    out[static_cast<std::size_t>(i)] =
        average(t0 + i * width, t0 + (i + 1) * width);
  }
  return out;
}

double StepSeries::max_value() const {
  double m = 0.0;
  for (const auto& [t, v] : points_) m = std::max(m, v);
  return m;
}

}  // namespace tlb::trace
