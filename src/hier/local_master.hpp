// Per-node local master: the lower level of the two-level scheduler.
//
// One LocalMaster per node owns that node's NodeSummary. It rebuilds the
// summary from live runtime state on demand (the expensive per-worker /
// per-core walk, paid once per summary period instead of once per
// decision) and keeps a decayed EWMA of the queue waits tasks observed on
// its node — the per-helper wait signal the global balancer vetoes
// pointless offloads with.
#pragma once

#include <cstdint>
#include <vector>

#include "hier/config.hpp"
#include "hier/summary.hpp"
#include "sched/config.hpp"
#include "sched/ewma.hpp"
#include "sched/scheduler.hpp"

namespace tlb::hier {

class LocalMaster {
 public:
  explicit LocalMaster(int node) { summary_.node = node; }

  [[nodiscard]] const NodeSummary& summary() const { return summary_; }
  [[nodiscard]] int node() const { return summary_.node; }
  [[nodiscard]] std::uint64_t refreshes() const { return refreshes_; }

  /// True while the summary is younger than `period` (a never-refreshed
  /// summary is always stale).
  [[nodiscard]] bool fresh(sim::SimTime now, sim::SimTime period) const {
    return summary_.refreshed_at >= 0.0 &&
           now - summary_.refreshed_at < period;
  }

  /// Rebuilds the summary from the live runtime state. Returns the number
  /// of state probes the walk is modelled to perform (per worker: the
  /// in-flight read plus one per owned core), charged to
  /// SchedStats::state_touched by the caller — the modelled DLB probe
  /// cost, not host time, amortized here and paid by flat policies on
  /// every decision.
  std::uint64_t refresh(const sched::RuntimeView& view, sim::SimTime now);

  /// Optimistic accounting of a placement the balancer just made on `w`:
  /// the worker's slack and the node aggregate drop by one so the summary
  /// never over-promises capacity between refreshes.
  void note_placed(core::WorkerId w);

  /// Folds one observed queue wait of a task that started on this node
  /// into the decayed per-node estimate (the flat policies' kWait*
  /// smoothing and half-life).
  void observe_wait(double wait, sim::SimTime now) {
    wait_ewma_.observe(wait, now, sched::kWaitSmoothing,
                       sched::kWaitHalflife);
  }
  /// Smoothed queue wait on this node (seconds), decayed to `now`.
  [[nodiscard]] double wait_estimate(sim::SimTime now) const {
    return wait_ewma_.read(now, sched::kWaitHalflife);
  }

  /// Folds a placement of `bytes` input bytes for `apprank` into the
  /// node's decayed residency signal (kResidency*, hier/config.hpp).
  void observe_residency(int apprank, double bytes, sim::SimTime now) {
    if (residency_.size() <= static_cast<std::size_t>(apprank)) {
      residency_.resize(static_cast<std::size_t>(apprank) + 1);
    }
    residency_[static_cast<std::size_t>(apprank)].observe(
        bytes, now, kResidencySmoothing, kResidencyHalflife);
  }
  /// Decayed input-byte residency of `apprank` on this node; 0 when the
  /// apprank never placed here.
  [[nodiscard]] double residency(int apprank, sim::SimTime now) const {
    if (residency_.size() <= static_cast<std::size_t>(apprank)) return 0.0;
    return residency_[static_cast<std::size_t>(apprank)].read(
        now, kResidencyHalflife);
  }

 private:
  NodeSummary summary_;
  sched::DecayEwma wait_ewma_;
  std::vector<sched::DecayEwma> residency_;  ///< indexed by apprank
  std::uint64_t refreshes_ = 0;
};

}  // namespace tlb::hier
