// FaultInjector — schedules a FaultPlan onto a ClusterRuntime.
//
// attach() must be called after constructing the runtime and before run();
// the injector plants one simulator event per injection/recovery instant
// (via ClusterRuntime::schedule_external) and must outlive the run. Each
// event makes one timeline mark: an injection is a
// trace::MarkKind::FaultInjected mark (the marks metrics::recovery_reports
// measures), a recovery a Generic one.
//
// Concurrent link perturbations compose: latency and bandwidth multipliers
// multiply, jitter bounds take the maximum, and loss rates combine as
// independent Bernoulli losses (1 - prod(1 - p_i)). When no link event is
// active the nominal interconnect is restored exactly (multipliers of 1.0
// are IEEE-exact no-ops, so a plan of zero-magnitude faults leaves the
// simulated execution bit-identical).
#pragma once

#include <cstddef>
#include <vector>

#include "core/runtime.hpp"
#include "fault/plan.hpp"

namespace tlb::fault {

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Validates the plan and schedules every event onto `rt`. Call before
  /// rt.run(); `rt` must outlive the run, and so must this injector.
  void attach(core::ClusterRuntime& rt);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  void activate(core::ClusterRuntime& rt, std::size_t i);
  void recover(core::ClusterRuntime& rt, std::size_t i);
  /// Re-derives the composed LinkFault from all active link events and
  /// installs it on the runtime.
  void apply_link(core::ClusterRuntime& rt) const;

  FaultPlan plan_;
  std::vector<char> active_;        ///< per event: currently in effect
  std::vector<double> saved_speed_; ///< per event: pre-slowdown node speed
};

}  // namespace tlb::fault
