// Scripted perturbation plans (tlb::fault).
//
// A FaultPlan is a declarative timeline of perturbations to inject into a
// ClusterRuntime execution: node slowdowns (with optional recovery), link
// degradation (latency/bandwidth multipliers, jitter), message loss on the
// interconnect, and fail-stop helper-rank crashes. The plan itself is pure
// data — the FaultInjector schedules it onto a runtime. All randomness
// (loss draws, jitter) is consumed downstream from seeded RNG streams, so
// a faulted run is reproducible from RuntimeConfig::seed alone.
#pragma once

#include <string>
#include <vector>

#include "sim/time.hpp"
#include "vmpi/comm.hpp"

namespace tlb::fault {

enum class FaultKind {
  NodeSlowdown,  ///< node speed multiplied by `factor` (e.g. 1/3 = 3x slower)
  LinkDegrade,   ///< interconnect latency/bandwidth multipliers + jitter
  MessageLoss,   ///< transmissions lost with probability `link.loss_rate`
  WorkerCrash,   ///< fail-stop crash of a helper rank (never recovers)
};

struct FaultEvent {
  FaultKind kind = FaultKind::NodeSlowdown;
  sim::SimTime at = 0.0;
  sim::SimTime until = -1.0;  ///< recovery instant; negative = permanent
  int target = -1;            ///< node (NodeSlowdown) or worker (WorkerCrash)
  double factor = 1.0;        ///< speed multiplier (NodeSlowdown)
  vmpi::LinkFault link;       ///< perturbation (LinkDegrade / MessageLoss)

  [[nodiscard]] bool recovers() const { return until >= 0.0; }
  /// Human-readable tag used for trace marks and recovery reports,
  /// e.g. "slowdown(node2,x0.33)@1.5".
  [[nodiscard]] std::string label() const;
};

/// Builder for perturbation timelines. Events may be added in any order;
/// validate() (called by the injector) checks ranges and invariants.
class FaultPlan {
 public:
  /// Multiplies node `node`'s speed by `factor` at time `at`; the original
  /// speed is restored at `until` (negative = permanent).
  FaultPlan& slow_node(int node, double factor, sim::SimTime at,
                       sim::SimTime until = -1.0);

  /// Degrades the interconnect from `at` to `until`: latency multiplied by
  /// `latency_mult`, bandwidth by `bandwidth_mult` (< 1 = slower), plus a
  /// uniform per-message delay in [0, jitter_max).
  FaultPlan& degrade_link(double latency_mult, double bandwidth_mult,
                          sim::SimTime jitter_max, sim::SimTime at,
                          sim::SimTime until = -1.0);

  /// Loses each transmission attempt with probability `rate` from `at` to
  /// `until`; lost messages are recovered by the vmpi retransmit path.
  FaultPlan& lose_messages(double rate, sim::SimTime at,
                           sim::SimTime until = -1.0);

  /// Fail-stop crash of helper worker `worker` at time `at`.
  FaultPlan& crash_worker(int worker, sim::SimTime at);

  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// Throws std::invalid_argument on malformed plans (negative times,
  /// recovery before injection, out-of-range rates or multipliers).
  void validate() const;

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace tlb::fault
