// ElasticController — scale-out / scale-in decisions (tlb::elastic).
//
// A deterministic, clockless hysteresis controller in the style of the
// other svc primitives (TokenBucket, GradientLimiter): the caller samples
// its queue-pressure signal on a fixed tick and feeds it in; the
// controller answers Hold / Out / In. No randomness, no event scheduling,
// no wall clock — the same sample sequence always yields the same
// decision sequence, which is what keeps elastic runs reproducible.
//
// Pressure is demand over capacity (see ElasticConfig). The controller
// scales out only after `sustain_ticks` consecutive high samples and in
// only after `idle_ticks` consecutive low samples, with a shared cooldown
// between actions — the two-level damping that prevents provision/retire
// thrash around the thresholds.
#pragma once

#include <cstdint>

#include "elastic/config.hpp"

namespace tlb::elastic {

enum class ScaleDecision {
  Hold,
  Out,  ///< add ElasticConfig::step nodes (caller clamps to max_nodes)
  In,   ///< remove up to ElasticConfig::step idle nodes
};

class ElasticController {
 public:
  explicit ElasticController(const ElasticConfig& config);

  /// One controller tick: `pressure` is the sampled demand/capacity ratio,
  /// `active_nodes` the current provisioned count (in-flight provisions
  /// included, so a pending scale-out is not requested twice). `now` must
  /// be monotone across calls.
  ScaleDecision observe(double now, double pressure, int active_nodes);

  /// Updates the node-count bounds mid-run (xDS node-set resource).
  /// Throws std::invalid_argument unless 1 <= min <= max.
  void set_bounds(int min_nodes, int max_nodes);

  [[nodiscard]] int min_nodes() const { return min_nodes_; }
  [[nodiscard]] int max_nodes() const { return max_nodes_; }
  [[nodiscard]] std::uint64_t scale_out_decisions() const { return outs_; }
  [[nodiscard]] std::uint64_t scale_in_decisions() const { return ins_; }

 private:
  ElasticConfig config_;
  int min_nodes_;
  int max_nodes_;
  int high_streak_ = 0;
  int low_streak_ = 0;
  double last_action_ = -1.0e300;  ///< effectively "never"
  std::uint64_t outs_ = 0;
  std::uint64_t ins_ = 0;
};

}  // namespace tlb::elastic
