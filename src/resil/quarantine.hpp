// Outlier quarantine, in the style of Envoy's outlier ejection.
//
// Workers accumulating consecutive lease expiries — or whose heartbeat phi
// crosses the detection threshold — are ejected from scheduler candidacy
// for a cooling period. After cooling, the monitor probes: if the worker
// has produced a heartbeat since ejection it is readmitted (false
// suspicion, e.g. a temporary link blackout); otherwise it is re-ejected
// with an exponentially growing, capped cooling period. A fail-stopped
// worker therefore converges to the longest cooling and never returns.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace tlb::resil {

/// Consecutive lease expiries that eject a worker from pick_worker
/// candidacy (phi crossings eject immediately).
inline constexpr int kQuarantineThreshold = 3;
/// Initial cooling period before an ejected worker is probed back in.
inline constexpr sim::SimTime kQuarantineCooling = 1.0;
/// Cooling grows by this factor on every consecutive re-ejection.
inline constexpr double kQuarantineBackoff = 2.0;
/// Upper bound on the cooling period.
inline constexpr sim::SimTime kQuarantineCoolingCap = 8.0;

class Quarantine {
 public:
  explicit Quarantine(int worker_count);

  /// Grows the tables when the topology gains a worker (expander rewire).
  void add_worker();

  /// A lease on `w` expired; returns true when the consecutive-expiry
  /// count has reached the ejection threshold.
  bool record_expiry(int w);

  /// A lease on `w` was served successfully: reset the expiry streak.
  void record_success(int w);

  /// Ejects `w` at `now`; cooling doubles (capped) on each consecutive
  /// ejection. Returns the time at which the worker may be probed back.
  sim::SimTime eject(int w, sim::SimTime now);

  /// Readmits `w` and clears its expiry streak (the ejection count is
  /// kept, so a flapping worker pays growing cooldowns).
  void readmit(int w);

  /// The end-of-cooling probe found `w` still silent: keep it ejected and
  /// grow the cooling period one more step. Returns the new probe time.
  sim::SimTime extend(int w, sim::SimTime now);

  [[nodiscard]] bool ejected(int w) const {
    return state_.at(static_cast<std::size_t>(w)).ejected;
  }
  [[nodiscard]] sim::SimTime ejected_at(int w) const {
    return state_.at(static_cast<std::size_t>(w)).ejected_at;
  }
  [[nodiscard]] int expiry_streak(int w) const {
    return state_.at(static_cast<std::size_t>(w)).streak;
  }

 private:
  struct State {
    int streak = 0;      ///< consecutive lease expiries
    int ejections = 0;   ///< lifetime ejection count (drives backoff)
    bool ejected = false;
    sim::SimTime ejected_at = 0.0;
  };
  /// Cooling period of the next ejection of a worker ejected
  /// `ejections` times before.
  [[nodiscard]] static sim::SimTime cooling(int ejections);

  std::vector<State> state_;
};

}  // namespace tlb::resil
