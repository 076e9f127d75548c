// Configuration of the failure-detection / graceful-degradation layer.
//
// All parameters are plain data consumed by ClusterRuntime; together with
// RuntimeConfig::seed they make detection fully deterministic. The default
// DetectionMode::Oracle preserves the original behaviour bit-for-bit:
// crashes are announced to the runtime directly and none of the heartbeat,
// lease or quarantine machinery is instantiated. Their tuning is fixed:
// see the constants in resil/phi_detector.hpp, resil/lease.hpp and
// resil/quarantine.hpp.
#pragma once

#include "sim/time.hpp"

namespace tlb::resil {

enum class DetectionMode {
  /// Failures are announced to the runtime by fiat (crash_worker performs
  /// the full oracle recovery immediately). Legacy / baseline behaviour.
  Oracle,
  /// Failures are *observed*: phi-accrual heartbeat detection, task
  /// leases with acknowledgment and retransmit, outlier quarantine.
  Heartbeat,
};

struct ResilConfig {
  DetectionMode detection = DetectionMode::Oracle;

  // --- solver fallback chain ------------------------------------------------
  /// Wall-clock budget for one global solve; when the modelled
  /// solver_latency exceeds it the policy downshifts to local convergence
  /// for that tick. 0 disables the budget.
  sim::SimTime solver_time_budget = 0.0;
  /// Bisection-iteration budget handed to solver::solve_allocation; if the
  /// solve does not converge within it, the policy downshifts. 0 keeps the
  /// solver default.
  int solver_iteration_budget = 0;

  /// Re-wire the expander with a fresh helper edge when a crash leaves an
  /// apprank with no usable helper (offloading degree collapses to 1).
  bool rewire_on_disconnect = true;

  [[nodiscard]] bool heartbeat_active() const {
    return detection == DetectionMode::Heartbeat;
  }
};

}  // namespace tlb::resil
