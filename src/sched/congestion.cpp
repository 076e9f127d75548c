#include "sched/policies.hpp"

#include <limits>

namespace tlb::sched {

Decision CongestionScheduler::pick(const nanos::Task& task) {
  ++stats_.decisions;
  if (has_remote_candidate(task)) ++stats_.offloads_considered;
  const core::WorkerId base = locality_pick(task);

  const net::Fabric* net = view_.fabric();
  if (net == nullptr) {
    // Analytic cost model: no congestion signal exists, so the policy
    // decays to the locality rule exactly (bit-identical placements).
    return {base, DecisionKind::Baseline};
  }

  const core::Topology& topo = view_.topology();
  const nanos::DataLocations& loc = view_.locations(task.apprank);
  const int home_node = topo.home_node(task.apprank);

  // Cost of a candidate = estimated input-transfer time over the path as
  // it is loaded *right now* (missing bytes over the narrowest link's
  // residual capacity) plus the smoothed FCT this helper's past offload
  // inputs observed. Slot order + strict < keeps the choice deterministic
  // and lets the home worker (slot 0, transfer-free) win exact ties.
  core::WorkerId chosen = -1;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const core::WorkerId w : topo.workers_of_apprank(task.apprank)) {
    if (!view_.usable(w) || !under_threshold(w)) continue;
    const int node = topo.worker(w).node;
    const std::uint64_t missing =
        loc.missing_input_bytes(task.accesses, node);
    double cost = kFctPenalty * fct_estimate(w);
    if (missing > 0 && node != home_node) {
      // Input bytes overwhelmingly stream from the home node (the apprank
      // allocated its regions there), so the home -> candidate path is
      // the first-order transfer estimate.
      const double load = net->path_load(home_node, node);
      if (load >= kCongestionAvoid) continue;  // saturated: veto
      const double residual =
          net->path_capacity(home_node, node) * (1.0 - load);
      cost += static_cast<double>(missing) / residual;
    }
    if (cost < best_cost) {
      best_cost = cost;
      chosen = w;
    }
  }

  if (chosen == base) return {chosen, DecisionKind::Baseline};
  if (chosen == -1) {
    // Every surviving candidate was vetoed although the locality rule
    // would have assigned: hold the task centrally — an idle worker
    // pulling it later beats streaming into a saturated uplink now.
    ++stats_.offloads_suppressed;
    return {-1, DecisionKind::Suppressed};
  }
  ++stats_.offloads_steered;
  return {chosen, DecisionKind::Steered};
}

void CongestionScheduler::on_inputs_landed(core::WorkerId w,
                                           sim::SimTime fct) {
  if (static_cast<std::size_t>(w) >= fct_ewma_.size()) {
    fct_ewma_.resize(static_cast<std::size_t>(w) + 1, 0.0);  // rewires grow
  }
  double& ewma = fct_ewma_[static_cast<std::size_t>(w)];
  ewma = ewma == 0.0 ? fct
                     : kFctSmoothing * ewma + (1.0 - kFctSmoothing) * fct;
}

}  // namespace tlb::sched
