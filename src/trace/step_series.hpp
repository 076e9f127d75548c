// Piecewise-constant time series (step function) for traces.
//
// Records counter changes at simulated timestamps (busy cores, owned
// cores, ...) and supports exact time-weighted averaging and binned
// sampling for rendering the paper's trace figures (Figs 5, 9, 10, 11).
//
// The stored series is canonical: times strictly increase and no point
// repeats the value of the point before it. A change that leaves the value
// as it was stores nothing, and a same-instant overwrite that restores the
// previous value removes the point (a task that ends and a successor that
// starts on the same core at the same instant leave no trace). The first
// point stays even when an overwrite restores 0, so empty() still tells
// whether anything was recorded.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace tlb::trace {

class StepSeries {
 public:
  using Point = std::pair<sim::SimTime, double>;  ///< (t, value from t)

  /// Adds `delta` to the value at time `t`. Times must be non-decreasing.
  void add(sim::SimTime t, double delta);

  /// Sets the absolute value at time `t`. Times must be non-decreasing.
  void set(sim::SimTime t, double value);

  /// Value at time `t` (value of the last change at or before `t`;
  /// 0 before the first change).
  [[nodiscard]] double value_at(sim::SimTime t) const;

  /// Exact time-weighted average over [t0, t1).
  [[nodiscard]] double average(sim::SimTime t0, sim::SimTime t1) const;

  /// Time-weighted average per bin over [t0, t1) split into `bins` equal
  /// intervals (for plotting).
  [[nodiscard]] std::vector<double> sample(sim::SimTime t0, sim::SimTime t1,
                                           int bins) const;

  /// Maximum value ever reached.
  [[nodiscard]] double max_value() const;

  [[nodiscard]] bool empty() const { return points_.empty(); }
  [[nodiscard]] std::size_t change_count() const { return points_.size(); }

  /// Points the storage holds room for (its bytes are
  /// capacity() * sizeof(Point)).
  [[nodiscard]] std::size_t capacity() const { return points_.capacity(); }

  /// Raw change points (time, new value), for Paraver export.
  [[nodiscard]] const std::vector<Point>& points() const { return points_; }

 private:
  std::vector<Point> points_;
};

}  // namespace tlb::trace
