// Configuration of the pluggable scheduler subsystem (tlb::sched).
//
// RuntimeConfig::sched selects the victim-selection policy by *name*
// (table lookup, see core/sched_table.hpp). Unknown names are rejected
// at ClusterRuntime construction with an error listing the valid values —
// a typo never silently falls back to the default. Every policy runs with
// one fixed tuning: the constants below are read by both the flat feedback
// policies and the hierarchical balancer (hier::GlobalBalancer); the
// policy-specific ones sit next to their policy in sched/policies.hpp.
#pragma once

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
};

/// Path utilization at/above which a remote candidate with data still
/// to move is steered away from (its uplink is saturated; streaming
/// more input bytes over it would only deepen the queue).
inline constexpr double kCongestionAvoid = 0.85;

/// EWMA factor for the queue-wait estimates (per apprank, per helper,
/// per node).
inline constexpr double kWaitSmoothing = 0.7;
/// Mean queue wait (seconds) below which remote offloading is
/// suppressed: tasks that barely wait at home gain nothing from paying
/// an offload transfer (Samfass et al.: offload on observed wait times,
/// not static scores).
inline constexpr sim::SimTime kWaitOffloadMin = 0.005;
/// Half-life (seconds) of the wait estimates between observations: an
/// estimate read t seconds after its last sample is scaled by
/// 2^-(t / half_life), so a helper that went idle decays back towards
/// "no observed waiting" instead of keeping its last-seen value forever.
inline constexpr sim::SimTime kWaitHalflife = 0.5;
/// Per-helper throttle: a remote offload whose target helper's own
/// smoothed queue wait exceeds kWaitHelperFactor x the apprank's home
/// wait is suppressed — tasks queue there longer than at home, so the
/// transfer buys nothing. Helper waits are observed end-to-end (they
/// include the offload input transfer), so the factor leaves headroom:
/// only a helper whose waits dwarf the home wait is vetoed.
inline constexpr double kWaitHelperFactor = 4.0;

}  // namespace tlb::sched
