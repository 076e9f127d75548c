#include "sched/scheduler.hpp"

#include <algorithm>
#include <limits>

#include "prof/prof.hpp"

namespace tlb::sched {

core::WorkerId Scheduler::locality_pick(const nanos::Task& task) const {
  // The flat §5.5 walk every policy builds on; its share of "sched.pick"
  // is what the hier summaries are meant to shrink.
  PROF_SCOPE("sched.locality_walk");
  const core::Topology& topo = view_.topology();
  const auto& ws = topo.workers_of_apprank(task.apprank);
  const nanos::DataLocations& loc = view_.locations(task.apprank);

  // Locality-best node: most input bytes already resident; home wins ties.
  // Crashed and quarantined workers are never candidates (home workers
  // cannot crash and are never quarantined). One walk over the task's
  // inputs tallies the resident bytes of every candidate node.
  core::WorkerId best = ws.front();
  if (ws.size() > 1 && !task.accesses.empty()) {
    pick_nodes_.clear();
    for (core::WorkerId w : ws) pick_nodes_.push_back(topo.worker(w).node);
    loc.resident_input_bytes(task.accesses, pick_nodes_, pick_bytes_);
    std::uint64_t best_bytes = pick_bytes_.front();
    stats_.state_touched += 1;
    for (std::size_t j = 1; j < ws.size(); ++j) {
      stats_.state_touched += 1;
      if (!view_.usable(ws[j])) continue;
      const std::uint64_t b = pick_bytes_[j];
      stats_.state_touched += 1;
      if (b > best_bytes) {
        best = ws[j];
        best_bytes = b;
      }
    }
  }
  if (under_threshold(best)) return best;

  // Alternative node under the threshold, least loaded first.
  core::WorkerId alt = -1;
  double best_ratio = std::numeric_limits<double>::infinity();
  for (core::WorkerId w : ws) {
    stats_.state_touched += 1;
    if (w == best || !view_.usable(w) || !under_threshold(w)) {
      continue;
    }
    stats_.state_touched += 2;
    const double ratio = static_cast<double>(view_.inflight(w)) /
                         std::max(1, view_.owned_cores(w));
    if (ratio < best_ratio) {
      best_ratio = ratio;
      alt = w;
    }
  }
  return alt;  // -1: every node saturated, hold centrally
}

bool Scheduler::has_remote_candidate(const nanos::Task& task) const {
  const core::Topology& topo = view_.topology();
  const core::WorkerId home = topo.home_worker(task.apprank);
  for (core::WorkerId w : topo.workers_of_apprank(task.apprank)) {
    stats_.state_touched += 1;
    if (w != home && view_.usable(w) && under_threshold(w)) return true;
  }
  return false;
}

}  // namespace tlb::sched
