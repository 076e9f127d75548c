#include "svc/breaker.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tlb::svc {

CircuitBreaker::CircuitBreaker(const BreakerConfig& config)
    : config_(config) {
  if (config_.failure_threshold < 1) {
    throw std::invalid_argument(
        "CircuitBreaker: failure_threshold must be >= 1");
  }
  if (config_.open_duration <= 0.0) {
    throw std::invalid_argument("CircuitBreaker: open_duration must be > 0");
  }
  if (config_.backoff_factor < 1.0) {
    throw std::invalid_argument(
        "CircuitBreaker: backoff_factor must be >= 1");
  }
  if (config_.max_open_duration < config_.open_duration) {
    throw std::invalid_argument(
        "CircuitBreaker: max_open_duration must be >= open_duration");
  }
}

double CircuitBreaker::current_open_duration() const {
  const double scaled =
      config_.open_duration *
      std::pow(config_.backoff_factor,
               static_cast<double>(std::max(0, consecutive_trips_ - 1)));
  return std::min(scaled, config_.max_open_duration);
}

void CircuitBreaker::trip(double now) {
  if (state_ == BreakerState::Closed) open_since_ = now;
  ++consecutive_trips_;
  ++trips_;
  state_ = BreakerState::Open;
  open_until_ = now + current_open_duration();
  consecutive_failures_ = 0;
}

void CircuitBreaker::close(double now) {
  open_accum_ += now - open_since_;
  state_ = BreakerState::Closed;
  consecutive_failures_ = 0;
  consecutive_trips_ = 0;
}

bool CircuitBreaker::allow(double now) {
  switch (state_) {
    case BreakerState::Closed:
      return true;
    case BreakerState::Open:
      if (now < open_until_) {
        ++shed_;
        return false;
      }
      state_ = BreakerState::HalfOpen;
      return true;
    case BreakerState::HalfOpen:
      ++shed_;
      return false;
  }
  return true;
}

void CircuitBreaker::on_success(double now) {
  switch (state_) {
    case BreakerState::Closed:
      consecutive_failures_ = 0;
      return;
    case BreakerState::Open:
      // A job admitted before the trip finished fine while we are open —
      // the probe cycle decides reopening, so this is ignored.
      return;
    case BreakerState::HalfOpen:
      close(now);
      return;
  }
}

void CircuitBreaker::on_failure(double now) {
  switch (state_) {
    case BreakerState::Closed:
      if (++consecutive_failures_ >= config_.failure_threshold) trip(now);
      return;
    case BreakerState::Open:
      // Straggler from before the trip; the open timer already runs.
      return;
    case BreakerState::HalfOpen:
      // The probe missed its SLO: re-trip with escalated backoff.
      trip(now);
      return;
  }
}

void CircuitBreaker::on_probe_shed(double now) {
  if (state_ != BreakerState::HalfOpen) return;
  // Re-arm the open timer without escalating: admission shedding the probe
  // is backpressure, not evidence about this tenant's jobs.
  state_ = BreakerState::Open;
  open_until_ = now + current_open_duration();
}

double CircuitBreaker::open_time(double now) const {
  return open_accum_ +
         (state_ != BreakerState::Closed ? now - open_since_ : 0.0);
}

}  // namespace tlb::svc
