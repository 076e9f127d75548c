#include "svc/admission.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace tlb::svc {

// --- TokenBucket -------------------------------------------------------------

TokenBucket::TokenBucket(double rate, double burst)
    : rate_(rate), burst_(burst), tokens_(burst) {
  assert(burst >= 1.0 || rate <= 0.0);
}

void TokenBucket::refill(double now) {
  if (now > last_) {
    tokens_ = std::min(burst_, tokens_ + rate_ * (now - last_));
    last_ = now;
  }
}

bool TokenBucket::try_take(double now) {
  if (rate_ <= 0.0) return true;
  refill(now);
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

double TokenBucket::available(double now) const {
  if (rate_ <= 0.0) return burst_;
  TokenBucket copy = *this;
  copy.refill(now);
  return copy.tokens_;
}

// --- GradientLimiter ---------------------------------------------------------

GradientLimiter::GradientLimiter(const AdmissionConfig& config)
    : config_(config), limit_(config.initial_limit) {
  assert(config.min_limit >= 1);
  assert(config.max_limit >= config.min_limit);
  assert(config.update_window >= 1);
  limit_ = std::clamp(limit_, config_.min_limit, config_.max_limit);
}

void GradientLimiter::record(double latency) {
  if (latency < 0.0) return;
  min_latency_ =
      min_latency_ < 0.0 ? latency : std::min(min_latency_, latency);
  window_.push_back(latency);
  if (static_cast<int>(window_.size()) < config_.update_window) return;

  // Window median as the sample latency (deterministic: nth_element on a
  // copy, ties resolved by value).
  std::vector<double> sorted = window_;
  const std::size_t mid = sorted.size() / 2;
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<std::ptrdiff_t>(mid),
                   sorted.end());
  const double sample = sorted[mid];
  window_.clear();
  ++updates_;

  if (sample <= 0.0 || min_latency_ <= 0.0) return;
  const double gradient = std::clamp(
      config_.tolerance * min_latency_ / sample, 0.5, 2.0);
  double next = static_cast<double>(limit_) * gradient;
  if (gradient >= 1.0) next += std::sqrt(static_cast<double>(limit_));
  limit_ = std::clamp(static_cast<int>(std::lround(next)),
                      config_.min_limit, config_.max_limit);
  // Slow upward drift of the floor so a durably slower service re-anchors
  // instead of shrinking forever against an unreachable best case.
  min_latency_ *= 1.05;
}

// --- RetryBudget -------------------------------------------------------------

RetryBudget::RetryBudget(double ratio, int base)
    : ratio_(ratio), base_(base) {}

bool RetryBudget::try_start(int in_flight) {
  const double budget = ratio_ * static_cast<double>(in_flight) +
                        static_cast<double>(base_);
  if (static_cast<double>(active_) >= budget) {
    ++exhausted_;
    return false;
  }
  ++active_;
  return true;
}

void RetryBudget::settle() {
  assert(active_ > 0);
  --active_;
}

// --- AdmissionController -----------------------------------------------------

const char* to_string(AdmitVerdict v) {
  switch (v) {
    case AdmitVerdict::Admit: return "admit";
    case AdmitVerdict::ShedBucket: return "shed-bucket";
    case AdmitVerdict::ShedLimit: return "shed-limit";
  }
  return "?";
}

AdmissionController::AdmissionController(const AdmissionConfig& config)
    : config_(config),
      bucket_(config.bucket_rate, config.bucket_burst),
      limiter_(config),
      retry_budget_(kRetryRatio, kRetryBase) {}

int AdmissionController::class_cap(int deadline_class) const {
  double fraction = 1.0;
  if (!config_.class_fractions.empty()) {
    const std::size_t i = std::min(
        static_cast<std::size_t>(std::max(deadline_class, 0)),
        config_.class_fractions.size() - 1);
    fraction = config_.class_fractions[i];
  }
  const int cap =
      static_cast<int>(std::floor(fraction * limiter_.limit()));
  // Class 0 (most latency-sensitive) always keeps at least one slot.
  return deadline_class <= 0 ? std::max(cap, 1) : std::max(cap, 0);
}

AdmitVerdict AdmissionController::decide(int deadline_class, int in_flight,
                                         double now) {
  if (!bucket_.try_take(now)) return AdmitVerdict::ShedBucket;
  if (in_flight >= class_cap(deadline_class)) return AdmitVerdict::ShedLimit;
  return AdmitVerdict::Admit;
}

}  // namespace tlb::svc
