// Configuration of the pluggable scheduler subsystem (tlb::sched).
//
// RuntimeConfig::sched selects the victim-selection policy by *name*
// (table lookup, see core/sched_table.hpp). Unknown names are rejected
// at ClusterRuntime construction with an error listing the valid values —
// a typo never silently falls back to the default.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace tlb::sched {

struct SchedConfig {
  /// Policy name: "locality" (paper §5.5, the default), "congestion"
  /// (locality + fabric link-load + per-helper FCT feedback), "waittime"
  /// (Samfass-style offload throttling on observed waits), "adaptive"
  /// (online portfolio selection among the three with hysteresis), or
  /// "hier" (two-level scheduling over per-node summaries, tlb::hier,
  /// tuned by RuntimeConfig::hier).
  std::string policy = "locality";

  // --- congestion policy tuning ----------------------------------------------

  /// Path utilization at/above which a remote candidate with data still
  /// to move is steered away from (its uplink is saturated; streaming
  /// more input bytes over it would only deepen the queue).
  double congestion_avoid = 0.85;
  /// EWMA factor for the per-helper flow-completion-time estimate:
  /// ewma = smoothing * ewma + (1 - smoothing) * observed.
  double fct_smoothing = 0.7;
  /// Weight of the per-helper FCT estimate in the candidate cost
  /// (seconds of penalty per second of smoothed FCT). Deliberately small:
  /// observed FCTs include whole-transfer queueing and run ~100x the
  /// instantaneous per-task transfer estimates, and the EWMA lags the
  /// fabric state — as a primary signal it causes anti-locality
  /// ping-ponging (steering to whichever helper was not used recently).
  /// At this scale it breaks ties between similarly-loaded paths while
  /// the live link utilization leads the decision.
  double fct_penalty = 0.02;

  // --- waittime policy tuning -------------------------------------------------

  /// EWMA factor for the per-apprank task queue-wait estimate.
  double wait_smoothing = 0.7;
  /// Mean queue wait (seconds) below which remote offloading is
  /// suppressed: tasks that barely wait at home gain nothing from paying
  /// an offload transfer (Samfass et al.: offload on observed wait times,
  /// not static scores).
  sim::SimTime wait_offload_min = 0.005;
  /// Half-life (seconds) of the wait estimates between observations: an
  /// estimate read t seconds after its last sample is scaled by
  /// 2^-(t / half_life), so a helper that went idle decays back towards
  /// "no observed waiting" instead of keeping its last-seen value forever.
  /// <= 0 disables the decay (legacy behaviour).
  double wait_halflife = 0.5;
  /// Per-helper throttle: a remote offload whose target helper's own
  /// smoothed queue wait exceeds wait_helper_factor x the apprank's home
  /// wait is suppressed — tasks queue there longer than at home, so the
  /// transfer buys nothing. Helper waits are observed end-to-end (they
  /// include the offload input transfer), so the factor leaves headroom:
  /// only a helper whose waits dwarf the home wait is vetoed.
  /// 0 disables the per-helper veto.
  double wait_helper_factor = 4.0;

  // --- adaptive portfolio tuning ----------------------------------------------
  // The portfolio is explore/exploit on *measured* waits: probe each mode
  // for a window of decisions, elect the best-measured one, exploit it
  // until the signals say the regime changed (see sched/policies.hpp).

  /// Probe window length in simulated seconds: each mode is measured
  /// over windows of this length during an explore cycle, and the same
  /// window paces the rolling drift check during exploit. Time-based on
  /// purpose — decisions arrive in same-instant bursts (a scheduler
  /// sweep places a whole iteration's ready tasks at one sim time), so a
  /// decision-counted window can close with zero elapsed time and
  /// measure nothing.
  sim::SimTime adaptive_window = 0.1;
  /// Election margin (relative dead band): a challenger displaces the
  /// incumbent mode only if its measured task-start rate exceeds
  /// (1 + adaptive_margin) x the incumbent's. Equivalent measurements
  /// keep the incumbent — no flapping between modes that tie.
  double adaptive_margin = 0.05;
  /// Fabric-pressure dead band (hottest candidate-path utilization): the
  /// latched pressure regime moves only when a sample crosses
  /// >= adaptive_pressure_high or <= adaptive_pressure_low. A regime
  /// crossing to the opposite side of the band from where the incumbent
  /// was elected triggers re-exploration; oscillation inside the band
  /// never does.
  double adaptive_pressure_high = 0.50;
  double adaptive_pressure_low = 0.25;
  /// Wait-drift trigger: during exploit, a rolling window whose mean
  /// observed wait exceeds adaptive_wait_exit x the elected mode's
  /// measured wait (floored at wait_offload_min) triggers re-exploration.
  double adaptive_wait_exit = 2.0;
  /// Minimum exploit length in probe windows before any re-explore
  /// trigger is honoured (dwell): even a genuine regime change cannot
  /// flip the portfolio back immediately.
  std::uint64_t adaptive_dwell = 16;
  /// Probe the waittime mode from *cold* estimator state: entering the
  /// waittime probe window clears the portfolio's waittime wait/helper
  /// EWMAs first. The estimators are kept warm across switches on
  /// purpose (a mode entered later starts from current signals), but for
  /// waittime specifically the warm start hides the mode's fixed point:
  /// its suppress -> low-waits -> keep-suppressing equilibrium is only
  /// reachable from low estimates, while the probe inherits the
  /// *previous* mode's high waits and measures locality-with-extra-steps
  /// instead. Cold-starting just the probe lets the election see the
  /// mode's own equilibrium. false restores the always-warm behaviour.
  bool adaptive_cold_probe = true;
};

}  // namespace tlb::sched
