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

  [[nodiscard]] bool heartbeat_active() const {
    return detection == DetectionMode::Heartbeat;
  }
};

}  // namespace tlb::resil
