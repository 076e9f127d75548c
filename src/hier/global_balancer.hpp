// Global balancer: the upper level of the two-level scheduler.
//
// Holds one LocalMaster per node and selects victims from their compact
// NodeSummaries. A decision touches O(nodes-adjacent-to-the-apprank)
// summaries — each an O(1) read — instead of the O(cores) global state a
// flat policy walks; the per-worker refresh walk happens at most once per
// kSummaryPeriod per node, amortized across all decisions in
// that window. Summaries are kept honest between refreshes by optimistic
// slack decrements for the balancer's own placements; liveness
// (crash/quarantine) is always checked against the runtime
// (RuntimeView::usable is O(1)), so a stale summary can delay a placement
// but never target an unusable worker.
#pragma once

#include <cstdint>
#include <vector>

#include "hier/config.hpp"
#include "hier/local_master.hpp"
#include "sched/config.hpp"
#include "sched/scheduler.hpp"

namespace tlb::hier {

class GlobalBalancer {
 public:
  GlobalBalancer(const HierConfig& hconf, const sched::RuntimeView& view)
      : hconf_(hconf), view_(view) {}

  /// One victim selection over summaries. Charges every summary read and
  /// refresh walk to `stats.state_touched` and keeps the offload
  /// considered/steered/suppressed accounting:
  ///   - Baseline  — placed at home (it had slack), or held centrally
  ///                 with every candidate saturated;
  ///   - Steered   — placed on the least-loaded remote candidate with
  ///                 slack; near-ties in load (HierConfig::residency_band)
  ///                 go to the node with the warmest decayed residency for
  ///                 the task's apprank, recovering the flat locality
  ///                 rule's transfer avoidance at summary cost;
  ///   - Suppressed — remote slack existed but congestion / helper-wait
  ///                 vetoes rejected every candidate.
  [[nodiscard]] sched::Decision pick(const nanos::Task& task,
                                     sched::SchedStats& stats);

  /// Queue-wait feedback, folded into the decayed estimate of the node
  /// the task started on.
  void on_task_started(core::WorkerId w, sim::SimTime wait);

  /// The node's master (created on first use).
  [[nodiscard]] LocalMaster& master(int node);
  [[nodiscard]] std::size_t master_count() const { return masters_.size(); }
  /// Total summary rebuilds across all masters (obs: hier.summary_refreshes).
  [[nodiscard]] std::uint64_t summary_refreshes() const;

 private:
  /// Refreshes the node's summary when older than the summary period
  /// (charging the walk), then charges one probe for reading it.
  const LocalMaster& consult(int node, sched::SchedStats& stats);
  [[nodiscard]] static int slack_of(const NodeSummary& s, core::WorkerId w);

  HierConfig hconf_;
  const sched::RuntimeView& view_;
  std::vector<LocalMaster> masters_;  ///< indexed by node id
};

}  // namespace tlb::hier
