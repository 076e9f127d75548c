// TALP — Tracking Application Live Performance (paper §3.3).
//
// Measures how busy each worker is: the time-integral of the number of
// cores executing its tasks. The balance policies use the windowed average
// ("average number of busy cores", §5.4) as their work estimate; the total
// supports end-of-run parallel-efficiency reports.
#pragma once

#include <cassert>
#include <functional>
#include <vector>

#include "sim/time.hpp"

namespace tlb::dlb {

class TalpModule {
 public:
  /// `now` supplies the current (simulated) time; `worker_count` sizes the
  /// accounting tables.
  TalpModule(std::function<sim::SimTime()> now, int worker_count);

  /// Grows the accounting tables for a worker added mid-run (expander
  /// rewire, tlb::resil); the newcomer starts idle with no history.
  void add_worker();

  /// A task started (+1) or finished (-1) on a core leased to `w`.
  void on_busy_delta(int worker, int delta);

  /// Total busy core-seconds accumulated by `worker` since construction.
  [[nodiscard]] double busy_core_seconds(int worker) const;

  /// Average number of busy cores over the current window.
  [[nodiscard]] double window_average(int worker) const;

  /// Instantaneous number of busy cores.
  [[nodiscard]] int current_busy(int worker) const {
    return state_.at(static_cast<std::size_t>(worker)).busy;
  }

  /// Starts a new measurement window (policies call this after reading).
  void reset_window();

  [[nodiscard]] int worker_count() const {
    return static_cast<int>(state_.size());
  }

 private:
  struct State {
    int busy = 0;
    double total = 0.0;        // busy core-seconds since start
    double window = 0.0;       // busy core-seconds since window start
    sim::SimTime last = 0.0;   // last accumulation timestamp
  };
  void accumulate(State& s) const;

  std::function<sim::SimTime()> now_;
  std::vector<State> state_;
  sim::SimTime window_start_ = 0.0;
};

}  // namespace tlb::dlb
