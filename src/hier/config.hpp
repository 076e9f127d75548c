// Configuration of the hierarchical two-level scheduler (tlb::hier).
#pragma once

#include "sim/time.hpp"

namespace tlb::hier {

/// Maximum age (seconds) of a node's load summary before the global
/// balancer asks its local master for a refresh. Between refreshes
/// decisions read the compact summary only — O(1) per node consulted —
/// and the balancer keeps slack consistent by decrementing it for its
/// own placements. Longer periods amortize the per-worker walk further
/// at the price of staler load signals.
inline constexpr sim::SimTime kSummaryPeriod = 0.05;

// --- data-residency tie-break ----------------------------------------------
// The flat locality rule places tasks where their input bytes already
// live; summary-driven balancing is blind to that, which is why hier
// trailed locality's makespan at 32-64 nodes: equally-loaded helpers
// are interchangeable by load but not by transfer cost. Each local
// master therefore keeps a decayed per-apprank EWMA of input bytes
// recently placed on its node, and the balancer breaks near-ties in
// load_ratio (within HierConfig::residency_band) towards the node with
// the warmest residency for the task's apprank. With no history (or
// residency_band = 0) the selection reduces exactly to the previous
// lowest-load_ratio rule.

/// Half-life (seconds) of the residency signal; old placements stop
/// counting after a few task generations.
inline constexpr sim::SimTime kResidencyHalflife = 0.2;
/// EWMA blend factor for new placements (1 = history only).
inline constexpr double kResidencySmoothing = 0.5;

struct HierConfig {
  /// Candidates whose load_ratio is within this absolute band of the
  /// minimum compete on residency instead of load. 0 disables the
  /// tie-break entirely.
  double residency_band = 0.25;
};

}  // namespace tlb::hier
