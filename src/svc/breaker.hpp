// Per-tenant circuit breaker (tlb::svc).
//
// The classic three-state breaker (Closed / Open / HalfOpen) applied to
// tenant SLO outcomes instead of RPC errors: `failure_threshold`
// consecutive SLO misses trip the tenant open, its arrivals are then shed
// at the door, and after an exponentially-backed-off open interval a
// single probe job is admitted. An SLO-met probe closes the breaker; a
// missed probe re-trips it with a longer interval. This bounds the damage
// a misbehaving tenant (oversized jobs, impossible deadlines) can do to
// the shared FCFS queue — its work stops occupying nodes other tenants
// need, so their p99 stays bounded.
//
// Deterministic and clockless like the admission primitives: callers pass
// the current simulated time, nothing here draws randomness or schedules
// events.
#pragma once

#include <cstdint>

#include "svc/config.hpp"

namespace tlb::svc {

enum class BreakerState { Closed, Open, HalfOpen };

class CircuitBreaker {
 public:
  /// Validates the config (threshold >= 1, positive durations,
  /// backoff_factor >= 1) — throws std::invalid_argument otherwise.
  explicit CircuitBreaker(const BreakerConfig& config);

  /// Gate for one arrival at `now`. Closed: always true. Open: false
  /// until the open interval elapses, at which point the breaker moves to
  /// HalfOpen and admits this arrival as the probe. HalfOpen: false (the
  /// one probe is outstanding).
  [[nodiscard]] bool allow(double now);

  /// SLO-met completion of one of this tenant's jobs; closes a HalfOpen
  /// breaker.
  void on_success(double now);
  /// SLO miss (or a job shed after admission, which also signals the
  /// tenant is not getting useful work through).
  void on_failure(double now);
  /// The half-open probe was shed downstream (admission) before it could
  /// run: return to Open for one more interval at the *current* backoff —
  /// being rejected by overload control is not the tenant's failure, so
  /// the backoff does not escalate, but the breaker must not stay wedged
  /// in HalfOpen waiting for feedback that will never come.
  void on_probe_shed(double now);

  [[nodiscard]] BreakerState state() const { return state_; }
  /// Times the breaker transitioned Closed/HalfOpen -> Open.
  [[nodiscard]] std::uint64_t trips() const { return trips_; }
  /// Arrivals rejected by allow().
  [[nodiscard]] std::uint64_t shed() const { return shed_; }
  /// Cumulative seconds spent not Closed (Open + HalfOpen) up to `now`.
  [[nodiscard]] double open_time(double now) const;

 private:
  [[nodiscard]] double current_open_duration() const;
  void trip(double now);
  void close(double now);

  BreakerConfig config_;
  BreakerState state_ = BreakerState::Closed;
  int consecutive_failures_ = 0;
  int consecutive_trips_ = 0;  ///< backoff exponent; resets on close
  double open_until_ = 0.0;
  double open_since_ = 0.0;   ///< start of the current non-Closed stretch
  double open_accum_ = 0.0;   ///< closed-out non-Closed seconds
  std::uint64_t trips_ = 0;
  std::uint64_t shed_ = 0;
};

}  // namespace tlb::svc
