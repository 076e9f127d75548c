// Time-decayed exponential averages for scheduling signals (tlb::sched).
//
// The feedback policies smooth observed waits / flow completion times with
// an EWMA, but a plain sample-driven EWMA has a staleness bug: a helper
// that stops producing samples (idle, drained, or simply not chosen)
// keeps its last estimate forever, and a burst that ended seconds ago
// still reads as "busy". DecayEwma fixes that by decaying the estimate
// towards zero with a positive half-life between observations, so a read
// at time t sees value * 2^-((t - last_observation) / half_life).
#pragma once

#include <cmath>

#include "sim/time.hpp"

namespace tlb::sched {

class DecayEwma {
 public:
  /// Estimate as of `now`: the stored value decayed by the elapsed time
  /// since the last observation. Pure — repeated reads at the same time
  /// return the same value.
  [[nodiscard]] double read(sim::SimTime now, double half_life) const {
    if (value_ == 0.0 || now <= updated_) return value_;
    return value_ * std::exp2(-(now - updated_) / half_life);
  }

  /// Folds one sample in at time `now`: the current (decayed) estimate is
  /// blended as estimate = smoothing * decayed + (1 - smoothing) * sample.
  void observe(double sample, sim::SimTime now, double smoothing,
               double half_life) {
    value_ = smoothing * read(now, half_life) + (1.0 - smoothing) * sample;
    updated_ = now;
  }

 private:
  double value_ = 0.0;
  sim::SimTime updated_ = 0.0;
};

}  // namespace tlb::sched
