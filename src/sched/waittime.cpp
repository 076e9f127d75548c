#include "sched/policies.hpp"

namespace tlb::sched {

Decision WaittimeScheduler::pick(const nanos::Task& task) {
  ++stats_.decisions;
  if (has_remote_candidate(task)) ++stats_.offloads_considered;
  const core::WorkerId base = locality_pick(task);
  const core::WorkerId home = view_.topology().home_worker(task.apprank);

  if (base >= 0 && base != home) {
    const double home_wait = wait_estimate(task.apprank);
    if (home_wait < kWaitOffloadMin) {
      // The apprank's tasks barely wait at home: a remote placement would
      // pay the input transfer for no queueing relief. Keep the task local
      // (or central, where an idle worker can still steal it once real
      // backlog shows up as waiting time).
      ++stats_.offloads_suppressed;
      return {under_threshold(home) ? home : -1, DecisionKind::Suppressed};
    }
    // Per-helper throttle: tasks queue at the chosen helper far longer
    // than at home (its observed end-to-end waits exceed the home
    // estimate by kWaitHelperFactor), so the offload moves the wait
    // instead of removing it — and pays the transfer on top. Hold the
    // task instead. The estimate decays with kWaitHalflife, so a helper
    // that has drained its backlog becomes a candidate again without
    // needing a fresh sample.
    if (helper_wait_estimate(base) > kWaitHelperFactor * home_wait) {
      ++stats_.offloads_suppressed;
      return {under_threshold(home) ? home : -1, DecisionKind::Suppressed};
    }
  }
  return {base, DecisionKind::Baseline};
}

void WaittimeScheduler::on_task_started(const nanos::Task& task,
                                        core::WorkerId w, sim::SimTime wait) {
  if (static_cast<std::size_t>(task.apprank) >= wait_ewma_.size()) {
    wait_ewma_.resize(static_cast<std::size_t>(task.apprank) + 1);
  }
  wait_ewma_[static_cast<std::size_t>(task.apprank)].observe(
      wait, view_.now(), kWaitSmoothing, kWaitHalflife);
  if (static_cast<std::size_t>(w) >= helper_ewma_.size()) {
    helper_ewma_.resize(static_cast<std::size_t>(w) + 1);  // rewires grow
  }
  helper_ewma_[static_cast<std::size_t>(w)].observe(
      wait, view_.now(), kWaitSmoothing, kWaitHalflife);
}

}  // namespace tlb::sched
