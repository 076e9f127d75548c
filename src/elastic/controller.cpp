#include "elastic/controller.hpp"

#include <stdexcept>
#include <string>

namespace tlb::elastic {

ElasticController::ElasticController(const ElasticConfig& config)
    : config_(config),
      min_nodes_(config.min_nodes),
      max_nodes_(config.max_nodes) {
  if (config_.min_nodes < 1 || config_.min_nodes > config_.max_nodes) {
    throw std::invalid_argument(
        "ElasticController: need 1 <= min_nodes <= max_nodes");
  }
  if (config_.eval_period <= 0.0) {
    throw std::invalid_argument("ElasticController: eval_period must be > 0");
  }
  if (config_.low_pressure < 0.0 ||
      config_.low_pressure >= config_.high_pressure) {
    throw std::invalid_argument(
        "ElasticController: need 0 <= low_pressure < high_pressure");
  }
  if (config_.sustain_ticks < 1 || config_.idle_ticks < 1 ||
      config_.step < 1) {
    throw std::invalid_argument(
        "ElasticController: sustain_ticks, idle_ticks, step must be >= 1");
  }
}

void ElasticController::set_bounds(int min_nodes, int max_nodes) {
  if (min_nodes < 1 || min_nodes > max_nodes) {
    throw std::invalid_argument(
        "ElasticController: need 1 <= min_nodes <= max_nodes (got " +
        std::to_string(min_nodes) + ".." + std::to_string(max_nodes) + ")");
  }
  min_nodes_ = min_nodes;
  max_nodes_ = max_nodes;
}

ScaleDecision ElasticController::observe(double now, double pressure,
                                         int active_nodes) {
  if (pressure >= config_.high_pressure) {
    ++high_streak_;
    low_streak_ = 0;
  } else if (pressure <= config_.low_pressure) {
    ++low_streak_;
    high_streak_ = 0;
  } else {
    // Dead band: both streaks reset, so a brief dip does not erase the
    // evidence threshold in either direction.
    high_streak_ = 0;
    low_streak_ = 0;
  }
  if (now - last_action_ < config_.cooldown) return ScaleDecision::Hold;
  if (high_streak_ >= config_.sustain_ticks && active_nodes < max_nodes_) {
    high_streak_ = 0;
    last_action_ = now;
    ++outs_;
    return ScaleDecision::Out;
  }
  if (low_streak_ >= config_.idle_ticks && active_nodes > min_nodes_) {
    low_streak_ = 0;
    last_action_ = now;
    ++ins_;
    return ScaleDecision::In;
  }
  return ScaleDecision::Hold;
}

}  // namespace tlb::elastic
