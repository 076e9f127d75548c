// Compact per-node load summaries exchanged between the two scheduling
// levels (tlb::hier).
//
// A flat policy probes global state on every victim selection: the
// in-flight throttle reads each candidate's owned-core count, which the
// model charges as one probe per owned core (SchedStats::state_touched is
// the modelled DLB probe cost, not host time), so one decision touches
// O(cores) state and the cost grows with the cluster. The hierarchical
// scheduler caps that: each node's local master condenses its workers
// into the fixed-size summary below, and the global balancer decides from
// summaries — O(1) per node consulted, refresh cost amortized over the
// summary period (Eleliemy & Ciorba's two-level MPI+MPI self-scheduling
// applied to victim selection).
#pragma once

#include <vector>

#include "core/topology.hpp"
#include "sim/time.hpp"

namespace tlb::hier {

/// One worker's scheduling headroom as of the last refresh.
struct WorkerSlack {
  core::WorkerId worker = -1;
  int owned = 0;     ///< DROM-owned cores at refresh
  int inflight = 0;  ///< assigned + running tasks at refresh
  /// Remaining in-flight headroom: inflight_per_core * owned - inflight,
  /// decremented optimistically for every placement the balancer makes
  /// between refreshes (so the summary never over-promises its own
  /// placements; it can still go stale against central-queue steals —
  /// those only make it conservative late, never unsafe).
  int slack = 0;
};

/// A node condensed for the global balancer.
struct NodeSummary {
  int node = -1;
  sim::SimTime refreshed_at = -1.0;  ///< -1: never refreshed
  int total_slack = 0;               ///< sum of positive worker slack
  double load_ratio = 0.0;           ///< sum inflight / max(1, sum owned)
  std::vector<WorkerSlack> workers;  ///< workers resident on the node
};

}  // namespace tlb::hier
