// Configuration and counters of the failure-detection / graceful-
// degradation layer.
//
// All parameters are plain data consumed by ClusterRuntime; together with
// RuntimeConfig::seed they make detection fully deterministic. The default
// DetectionMode::Oracle preserves the original behaviour bit-for-bit:
// crashes are announced to the runtime directly and no resil::Monitor
// (resil/monitor.hpp) is built. Their tuning is fixed:
// see the constants in resil/phi_detector.hpp, resil/lease.hpp and
// resil/monitor.hpp.
#pragma once

#include <cstdint>

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
};

/// The Heartbeat-mode protocol's counters, kept by resil::Monitor (all
/// zero under Oracle detection); core::RunResult inherits them.
struct Counters {
  std::uint64_t heartbeat_messages = 0;   ///< heartbeats sent on ctrl plane
  std::uint64_t detections = 0;           ///< true suspicions (worker was dead)
  std::uint64_t false_suspicions = 0;     ///< suspicions of live workers
  double detection_latency_sum = 0.0;     ///< sum over true detections
  std::uint64_t lease_retransmits = 0;    ///< offload copies re-sent
  std::uint64_t lease_expiries = 0;       ///< leases that exhausted attempts
  std::uint64_t duplicates_suppressed = 0;  ///< stale completions dropped
  std::uint64_t quarantine_ejections = 0;
  std::uint64_t quarantine_readmissions = 0;
};

}  // namespace tlb::resil
