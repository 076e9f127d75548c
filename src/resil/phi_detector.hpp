// Phi-accrual failure detector (Hayashibara et al., SRDS'04).
//
// Instead of a binary alive/dead verdict from a fixed timeout, the detector
// outputs a continuous suspicion level
//
//   phi(t) = -log10 P(no heartbeat for (t - last_arrival) | history)
//
// where the inter-arrival distribution is estimated from a sliding window
// of observed heartbeat gaps, modelled as a normal tail. The consumer
// compares phi against a threshold: higher thresholds tolerate longer
// silences (fewer false positives, slower detection). Because the
// simulator is deterministic the sample variance can collapse to zero, so
// the standard deviation is floored by `min_std`.
#pragma once

#include <cstddef>
#include <deque>

#include "sim/time.hpp"

namespace tlb::resil {

// Heartbeat-mode tuning (ResilConfig::detection == Heartbeat), one fixed
// value per knob.

/// Interval between heartbeats a helper sends to its apprank's home
/// runtime over the control plane (so heartbeats see link faults).
inline constexpr sim::SimTime kHeartbeatPeriod = 0.05;
/// Suspicion threshold: a worker is suspected when
/// phi = -log10 P(silence this long | past arrivals) exceeds this.
inline constexpr double kPhiThreshold = 8.0;
/// Sliding window of inter-arrival samples kept per detector.
inline constexpr int kPhiWindow = 32;
/// Lower bound on the inter-arrival standard deviation. The simulator is
/// deterministic, so observed variance can collapse to zero; the floor
/// keeps the normal tail well-defined (and models clock/scheduling skew
/// a real deployment always has).
inline constexpr sim::SimTime kPhiMinStd = 0.01;

class PhiAccrualDetector {
 public:
  PhiAccrualDetector(int window, double min_std);

  /// Records a heartbeat arrival at simulated time `now` (must be
  /// non-decreasing across calls).
  void heartbeat(sim::SimTime now);

  /// Suspicion level at time `now`; 0 while fewer than two arrivals have
  /// been observed (no distribution to judge silence against).
  [[nodiscard]] double phi(sim::SimTime now) const;

  /// True once at least two heartbeats have arrived.
  [[nodiscard]] bool started() const { return !intervals_.empty(); }

  /// Forgets all history (used when a quarantined worker is readmitted, so
  /// stale pre-ejection gaps do not poison the fresh estimate).
  void reset();

  /// Window mean / floored standard deviation (diagnostic; 0 before start).
  [[nodiscard]] double mean() const;
  [[nodiscard]] double stddev() const;

 private:
  std::deque<double> intervals_;
  std::size_t window_;
  double min_std_;
  sim::SimTime last_ = -1.0;  ///< last arrival; < 0 = none yet
};

}  // namespace tlb::resil
