// "adaptive" — online selection over the fixed policy portfolio.
//
// LB4OMP (Korndörfer et al.) showed that for OpenMP loop scheduling no
// single DLS technique wins across applications and system states, and
// that a runtime selecting among techniques from *observed performance*
// beats any fixed choice. The same holds for victim selection here
// (fig14: congestion steering wins when it keeps the fabric healthy,
// waittime suppression wins when offloads are speculative, locality when
// neither), and crucially the winning regime cannot be recovered from
// instantaneous signals alone — a congested fabric can mean "steer
// around it" or "stop offloading" depending on whether the alternative
// paths have headroom. So the portfolio measures instead of guessing:
// each mode is probed for a window of simulated time while its
// task-start rate is recorded, the highest-throughput mode is elected
// and exploited, and re-exploration happens only when the observed
// queue waits drift or the fabric-pressure regime crosses the
// configured dead band. Throughput is the reward because it tracks the
// makespan objective for every mode, where waits cannot: suppression
// (waittime) deliberately trades longer individual waits for fewer
// pointless transfers, so judging it by waits would never elect it.
// Switches are damped three ways (election margin, minimum exploit
// dwell, pressure dead band), so a signal oscillating inside the band
// never flaps the mode.
#include "sched/policies.hpp"

#include <algorithm>

namespace tlb::sched {

Decision AdaptiveScheduler::pick(const nanos::Task& task) {
  step(task);
  ++mode_decisions_[static_cast<std::size_t>(mode_)];
  return active().pick(task);
}

void AdaptiveScheduler::on_task_started(const nanos::Task& task,
                                        core::WorkerId w, sim::SimTime wait) {
  // Keep every estimator warm so a mode entered later starts from current
  // signals, not from whatever was observed before the last switch.
  locality_.on_task_started(task, w, wait);
  congestion_.on_task_started(task, w, wait);
  waittime_.on_task_started(task, w, wait);
  // Attribute the wait to the currently active mode's open window. Waits
  // observed early in a window were partly caused by the previous mode's
  // placements; the windows are long enough that the tail dominates.
  window_wait_sum_ += wait;
  ++window_waits_;
}

void AdaptiveScheduler::on_inputs_landed(core::WorkerId w, sim::SimTime fct) {
  locality_.on_inputs_landed(w, fct);
  congestion_.on_inputs_landed(w, fct);
  waittime_.on_inputs_landed(w, fct);
}

double AdaptiveScheduler::sampled_pressure(const nanos::Task& task) {
  const net::Fabric* net = view_.fabric();
  if (net == nullptr) return 0.0;
  const core::Topology& topo = view_.topology();
  const int home_node = topo.home_node(task.apprank);
  double pressure = 0.0;
  for (const core::WorkerId w : topo.workers_of_apprank(task.apprank)) {
    const int node = topo.worker(w).node;
    if (node == home_node) continue;
    ++probe_touched_;
    pressure = std::max(pressure, net->path_load(home_node, node));
  }
  return pressure;
}

void AdaptiveScheduler::set_mode(Mode m) {
  if (m == mode_) return;
  mode_ = m;
  ++switches_;
}

void AdaptiveScheduler::elect() {
  exploring_ = false;
  Mode best = Mode::Locality;
  double best_rate = probe_rate_[0];
  for (int i = 1; i < 3; ++i) {
    if (probe_rate_[i] > best_rate) {
      best = static_cast<Mode>(i);
      best_rate = probe_rate_[i];
    }
  }
  // Hysteresis #1: the incumbent is displaced only if the challenger
  // beats its measured throughput by the relative margin — equivalent
  // measurements keep the incumbent, so modes that tie never flap.
  const double incumbent_rate =
      probe_rate_[static_cast<std::size_t>(incumbent_)];
  if (best != incumbent_ &&
      best_rate <= (1.0 + kMargin) * incumbent_rate) {
    best = incumbent_;
  }
  incumbent_ = best;
  elected_wait_ = probe_wait_[static_cast<std::size_t>(best)];
  elected_regime_ = regime_;
  exploit_windows_ = 0;
  set_mode(best);
}

void AdaptiveScheduler::step(const nanos::Task& task) {
  // Pressure regime with a dead band: only a crossing of the high or low
  // threshold moves it; values inside [low, high) leave it latched.
  const double pressure = sampled_pressure(task);
  if (pressure >= kPressureHigh) {
    regime_ = 1;
  } else if (pressure <= kPressureLow) {
    regime_ = -1;
  }

  const sim::SimTime elapsed = view_.now() - window_start_;
  if (elapsed < kWindow) return;

  // Window boundary: fold the window's measurements into the active
  // mode's scores. A window with no observed starts measured nothing —
  // the mode keeps its previous scores rather than reading as
  // infinitely good or bad.
  const std::size_t mi = static_cast<std::size_t>(mode_);
  if (window_waits_ > 0) {
    probe_rate_[mi] = static_cast<double>(window_waits_) / elapsed;
    probe_wait_[mi] = window_wait_sum_ / static_cast<double>(window_waits_);
  }
  const double mean_wait = probe_wait_[mi];
  window_start_ = view_.now();
  window_wait_sum_ = 0.0;
  window_waits_ = 0;

  if (exploring_) {
    // One scored window per mode. In barrier-paced programs the window
    // stretches to a full iteration (decisions arrive in same-instant
    // bursts and the barrier drains everything in between), so the score
    // captures the mode's end-to-end effect on the iteration with no
    // carryover from the previous mode.
    if (probe_index_ < 2) {
      ++probe_index_;
      const Mode next = static_cast<Mode>(probe_index_);
      if (next == Mode::Waittime) {
        // Cold probe: the always-warm estimators (on_task_started above)
        // hand the waittime probe the *previous* mode's high waits, so
        // suppression never engages and the window measures
        // locality-with-extra-steps. Clearing the estimates lets the
        // probe reach the mode's own suppress -> low-waits equilibrium;
        // they re-warm from this window's observations immediately.
        waittime_.reset_estimates();
      }
      set_mode(next);
      return;
    }
    elect();
    return;
  }

  // Exploit: keep scoring the incumbent, re-explore only after the
  // minimum dwell (hysteresis #2) and only on a real trigger.
  ++exploit_windows_;
  if (exploit_windows_ < kDwell) return;
  const double drift_floor = std::max(elected_wait_, kWaitOffloadMin);
  const bool wait_drift = mean_wait > kWaitExit * drift_floor;
  const bool regime_shift = regime_ != elected_regime_;
  if (wait_drift || regime_shift) {
    exploring_ = true;
    probe_index_ = 0;
    set_mode(Mode::Locality);
  }
}

const SchedStats& AdaptiveScheduler::stats() const {
  merged_ = SchedStats{};
  merged_.merge(locality_.stats());
  merged_.merge(congestion_.stats());
  merged_.merge(waittime_.stats());
  merged_.merge(stats_);  // locality_pick probes made through *this*, if any
  merged_.switches = switches_;
  merged_.state_touched += probe_touched_;
  return merged_;
}

}  // namespace tlb::sched
