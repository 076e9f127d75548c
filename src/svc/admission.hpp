// Admission / overload control primitives (tlb::svc).
//
// Envoy-style traffic management, adapted from its upstream admission
// machinery (the same family as the outlier quarantine already borrowed
// in tlb::resil):
//   - TokenBucket:     front-door rate limiting with a burst allowance;
//   - GradientLimiter: adaptive concurrency limit driven by the gradient
//                      between the observed latency floor and the current
//                      sample latency (Envoy adaptive-concurrency filter /
//                      Netflix concurrency-limits);
//   - RetryBudget:     retries capped at a ratio of in-flight work plus a
//                      constant floor, preventing retry storms;
//   - AdmissionController: composes the three plus per-deadline-class
//                      shed fractions into a single admit/shed verdict.
//
// Everything is deterministic and clockless: callers pass the current
// simulated time; nothing here draws randomness or schedules events.
#pragma once

#include <cstdint>
#include <vector>

#include "svc/config.hpp"

namespace tlb::svc {

/// Classic token bucket with lazy refill. `rate <= 0` means unlimited
/// (try_take always succeeds).
class TokenBucket {
 public:
  TokenBucket(double rate, double burst);

  /// Takes one token at simulated time `now` (monotone across calls);
  /// false when the bucket is empty.
  bool try_take(double now);

  /// Tokens available at `now` (diagnostic).
  [[nodiscard]] double available(double now) const;

 private:
  void refill(double now);

  double rate_;
  double burst_;
  double tokens_;
  double last_ = 0.0;
};

/// Gradient-based adaptive concurrency limit. Collects one latency sample
/// per completed job; every `update_window` samples the limit is rescaled
/// by clamp(tolerance * min_latency / window_p50, 0.5, 2.0), with a
/// sqrt(limit) headroom term when growing so the limiter keeps probing
/// for capacity. The latency floor is a running minimum inflated by 5%
/// per update so it can track a genuinely slower regime instead of
/// pinning to a stale best case.
class GradientLimiter {
 public:
  explicit GradientLimiter(const AdmissionConfig& config);

  [[nodiscard]] int limit() const { return limit_; }
  [[nodiscard]] double min_latency() const { return min_latency_; }
  [[nodiscard]] int updates() const { return updates_; }

  /// Records one completed-job latency; may trigger a limit update.
  void record(double latency);

 private:
  AdmissionConfig config_;
  int limit_;
  double min_latency_ = -1.0;  ///< -1 until the first sample
  std::vector<double> window_;
  int updates_ = 0;
};

/// The admission controller's retry budget: retries may be at most
/// kRetryRatio of the in-flight jobs plus kRetryBase.
inline constexpr double kRetryRatio = 0.2;
inline constexpr int kRetryBase = 3;

/// Envoy-style retry budget: a retry may start only while
/// active_retries < ratio * in_flight + base.
class RetryBudget {
 public:
  RetryBudget(double ratio, int base);

  /// Reserves a retry slot against `in_flight` jobs; false = over budget.
  bool try_start(int in_flight);
  /// Releases a slot once the retried arrival was re-decided.
  void settle();

  [[nodiscard]] int active() const { return active_; }
  [[nodiscard]] std::uint64_t exhausted() const { return exhausted_; }

 private:
  double ratio_;
  int base_;
  int active_ = 0;
  std::uint64_t exhausted_ = 0;
};

/// Composite admission verdict.
enum class AdmitVerdict {
  Admit,
  ShedBucket,  ///< token bucket empty
  ShedLimit,   ///< class's share of the concurrency limit exhausted
};

[[nodiscard]] const char* to_string(AdmitVerdict v);

/// Composes bucket + limiter + class fractions. The caller supplies the
/// current in-flight count (running + queued jobs) and the deadline class.
class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionConfig& config);

  /// Decision for one arrival. Consumes a token only when the other gates
  /// pass would not matter — bucket first, mirroring an edge rate limiter
  /// in front of the concurrency gate.
  AdmitVerdict decide(int deadline_class, int in_flight, double now);

  /// Completed-job latency feedback to the gradient limiter.
  void on_job_latency(double latency) { limiter_.record(latency); }

  /// Effective concurrency cap for a deadline class (limit * fraction,
  /// never below 1 for class 0).
  [[nodiscard]] int class_cap(int deadline_class) const;

  [[nodiscard]] const GradientLimiter& limiter() const { return limiter_; }
  [[nodiscard]] RetryBudget& retry_budget() { return retry_budget_; }
  [[nodiscard]] const TokenBucket& bucket() const { return bucket_; }

 private:
  AdmissionConfig config_;
  TokenBucket bucket_;
  GradientLimiter limiter_;
  RetryBudget retry_budget_;
};

}  // namespace tlb::svc
