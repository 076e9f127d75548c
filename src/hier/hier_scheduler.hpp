// "hier" — hierarchical two-level victim selection (tlb::hier).
//
// The flat policies in tlb::sched probe global state on every decision:
// the in-flight throttle alone is charged one probe per owned core of
// each candidate (SchedStats::state_touched, the modelled DLB probe cost,
// not host time), so one decision costs O(cores) and scheduling cost
// grows linearly with the cluster. This subsystem splits the decision
// across two levels (Eleliemy & Ciorba, two-level MPI+MPI self-scheduling):
// per-node LocalMasters condense their workers into compact NodeSummaries
// (slack, load ratio, decayed queue-wait estimate), and a GlobalBalancer
// decides from summaries only — O(adjacent nodes) summary reads per
// decision, with the per-worker refresh walk amortized over
// kSummaryPeriod (hier/config.hpp).
//
// Divergence from the flat baseline, by design: placement is balance- and
// headroom-driven (no per-decision resident-bytes scan of the dependency
// graph — near-ties in load are broken by a decayed per-apprank
// residency EWMA, hier/config.hpp), so Steered counts every
// remote placement and schedules are NOT
// comparable fingerprint-wise to "locality". Any other policy name
// constructs nothing from this library and stays bit-identical.
//
// Layering: tlb_hier links tlb_sched (Scheduler base), never the other
// way; the "hier" name resolves through core's policy table
// (core/sched_table.hpp), which links both.
#pragma once

#include <cstdint>

#include "hier/config.hpp"
#include "hier/global_balancer.hpp"
#include "prof/prof.hpp"
#include "sched/scheduler.hpp"

namespace tlb::hier {

class HierScheduler final : public sched::Scheduler {
 public:
  HierScheduler(const HierConfig& hconf, const sched::RuntimeView& view)
      : Scheduler(view), balancer_(hconf, view) {}

  [[nodiscard]] const char* name() const override { return "hier"; }
  [[nodiscard]] sched::Decision pick(const nanos::Task& task) override {
    // Nests under the runtime's "sched.pick": the summary-driven
    // placement is the part whose cost must stay O(adjacent nodes).
    PROF_SCOPE("hier.balance");
    return balancer_.pick(task, stats_);
  }
  void on_task_started(const nanos::Task& task, core::WorkerId w,
                       sim::SimTime wait) override {
    (void)task;
    balancer_.on_task_started(w, wait);
  }

  [[nodiscard]] const GlobalBalancer& balancer() const { return balancer_; }
  [[nodiscard]] std::uint64_t summary_refreshes() const {
    return balancer_.summary_refreshes();
  }

 private:
  GlobalBalancer balancer_;
};

}  // namespace tlb::hier
