#include "svc/arrivals.hpp"

#include <cassert>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace tlb::svc {

namespace {
// Child-stream tags under the subsystem seed (see core/runtime.cpp for
// the core tags; these only need to be distinct from each other).
constexpr std::uint64_t kSeedArrivals = 0x5E21;
constexpr std::uint64_t kSeedJobs = 0x5E22;
constexpr double kTwoPi = 6.283185307179586476925286766559;
/// Bursty shape: mean normal-state dwell, so that bursts take
/// kBurstFraction of the time.
constexpr double kNormalDwell =
    kBurstDwell * (1.0 - kBurstFraction) / kBurstFraction;
// The normal-state rate that keeps the long-run mean at the nominal rate
// stays positive.
static_assert(kBurstFraction * kBurstFactor < 1.0);
}  // namespace

ArrivalGenerator::ArrivalGenerator(ArrivalConfig config,
                                   std::vector<double> template_weights,
                                   std::uint64_t seed)
    : config_(config),
      rng_(sim::Rng(seed).fork(kSeedArrivals)),
      seed_rng_(sim::Rng(seed).fork(kSeedJobs)) {
  if (template_weights.empty()) {
    throw std::invalid_argument("ArrivalGenerator: no job templates");
  }
  if (config_.shape != ArrivalShape::Trace && config_.rate <= 0.0) {
    throw std::invalid_argument("ArrivalGenerator: rate must be positive");
  }
  if (config_.shape == ArrivalShape::Trace) {
    double prev = 0.0;
    for (std::size_t i = 0; i < config_.trace.size(); ++i) {
      const Arrival& a = config_.trace[i];
      if (a.time < prev || !std::isfinite(a.time)) {
        throw std::invalid_argument(
            "ArrivalGenerator: trace times must be finite and monotone "
            "non-decreasing (entry " + std::to_string(i) + ")");
      }
      if (a.template_index < 0 ||
          a.template_index >= static_cast<int>(template_weights.size())) {
        throw std::invalid_argument(
            "ArrivalGenerator: trace entry " + std::to_string(i) +
            " references template " + std::to_string(a.template_index) +
            " of " + std::to_string(template_weights.size()));
      }
      prev = a.time;
    }
  }
  if (config_.diurnal_amplitude < 0.0 || config_.diurnal_amplitude >= 1.0) {
    throw std::invalid_argument(
        "ArrivalGenerator: diurnal_amplitude must be in [0, 1)");
  }
  double total = 0.0;
  for (double w : template_weights) {
    if (w < 0.0) {
      throw std::invalid_argument(
          "ArrivalGenerator: negative template weight");
    }
    total += w;
    cumulative_weight_.push_back(total);
  }
  if (total <= 0.0) {
    throw std::invalid_argument(
        "ArrivalGenerator: template weights sum to zero");
  }
  if (config_.shape == ArrivalShape::Bursty) {
    // Start in the normal state; first toggle after one normal dwell.
    switch_at_ = rng_.exponential(kNormalDwell);
  }
}

double ArrivalGenerator::burst_rate_high() const {
  return config_.rate * kBurstFactor;
}

double ArrivalGenerator::burst_rate_low() const {
  // Chosen so fraction * high + (1 - fraction) * low == rate.
  return config_.rate * (1.0 - kBurstFraction * kBurstFactor) /
         (1.0 - kBurstFraction);
}

void ArrivalGenerator::advance() {
  switch (config_.shape) {
    case ArrivalShape::Trace:
      assert(false && "Trace replay bypasses advance()");
      return;
    case ArrivalShape::Poisson:
      now_ += rng_.exponential(1.0 / config_.rate);
      return;
    case ArrivalShape::Bursty: {
      // Step the two-state MMPP: draw a gap at the current state's rate;
      // a gap crossing the next toggle instead moves time to the toggle,
      // flips the state, and redraws (memorylessness makes this exact).
      for (;;) {
        const double rate = in_burst_ ? burst_rate_high() : burst_rate_low();
        const double gap = rng_.exponential(1.0 / rate);
        if (now_ + gap <= switch_at_) {
          now_ += gap;
          return;
        }
        now_ = switch_at_;
        in_burst_ = !in_burst_;
        switch_at_ =
            now_ + rng_.exponential(in_burst_ ? kBurstDwell : kNormalDwell);
      }
    }
    case ArrivalShape::Diurnal: {
      // Thinning: candidates at the peak rate, accepted with probability
      // lambda(t) / lambda_max.
      const double lambda_max =
          config_.rate * (1.0 + config_.diurnal_amplitude);
      for (;;) {
        now_ += rng_.exponential(1.0 / lambda_max);
        const double lambda =
            config_.rate *
            (1.0 + config_.diurnal_amplitude *
                       std::sin(kTwoPi * now_ / config_.diurnal_period));
        if (rng_.uniform(0.0, 1.0) * lambda_max <= lambda) return;
      }
    }
  }
}

std::optional<Arrival> ArrivalGenerator::next() {
  if (config_.shape == ArrivalShape::Trace) {
    // Verbatim replay: no RNG draws, so the emitted sequence is the trace
    // itself (subject to the same horizon).
    if (trace_pos_ >= config_.trace.size()) return std::nullopt;
    const Arrival a = config_.trace[trace_pos_];
    if (a.time > config_.horizon) return std::nullopt;
    ++trace_pos_;
    now_ = a.time;
    return a;
  }
  advance();
  if (now_ > config_.horizon) return std::nullopt;

  Arrival a;
  a.time = now_;
  const double pick = rng_.uniform(0.0, cumulative_weight_.back());
  a.template_index = 0;
  while (a.template_index + 1 < static_cast<int>(cumulative_weight_.size()) &&
         pick >= cumulative_weight_[static_cast<std::size_t>(
                     a.template_index)]) {
    ++a.template_index;
  }
  a.job_seed = seed_rng_.next_u64();
  return a;
}

std::vector<Arrival> ArrivalGenerator::all() {
  std::vector<Arrival> out;
  while (auto a = next()) out.push_back(*a);
  return out;
}

std::string dump_arrivals_jsonl(const std::vector<Arrival>& arrivals) {
  std::string out;
  char line[128];
  for (const Arrival& a : arrivals) {
    // %.17g prints the shortest-or-exact 17-significant-digit form, which
    // strtod maps back to the identical bit pattern (round-trip guarantee
    // for IEEE-754 binary64).
    std::snprintf(line, sizeof(line),
                  "{\"time\":%.17g,\"template\":%d,\"seed\":%" PRIu64 "}\n",
                  a.time, a.template_index,
                  static_cast<std::uint64_t>(a.job_seed));
    out += line;
  }
  return out;
}

namespace {

/// Consumes the literal `expect` at `p`, throwing with the line number
/// otherwise. Returns the advanced pointer.
const char* expect_literal(const char* p, const char* expect,
                           std::size_t line_no) {
  for (const char* e = expect; *e != '\0'; ++e, ++p) {
    if (*p != *e) {
      throw std::invalid_argument(
          "parse_arrivals_jsonl: malformed line " + std::to_string(line_no) +
          " (expected \"" + expect + "\")");
    }
  }
  return p;
}

}  // namespace

std::vector<Arrival> parse_arrivals_jsonl(const std::string& text) {
  std::vector<Arrival> out;
  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) continue;

    const char* p = expect_literal(line.c_str(), "{\"time\":", line_no);
    char* end = nullptr;
    errno = 0;
    Arrival a;
    a.time = std::strtod(p, &end);
    if (end == p || errno == ERANGE) {
      throw std::invalid_argument(
          "parse_arrivals_jsonl: bad time on line " + std::to_string(line_no));
    }
    p = expect_literal(end, ",\"template\":", line_no);
    const long tpl = std::strtol(p, &end, 10);
    if (end == p || tpl < 0 || tpl > 1'000'000) {
      throw std::invalid_argument(
          "parse_arrivals_jsonl: bad template on line " +
          std::to_string(line_no));
    }
    a.template_index = static_cast<int>(tpl);
    p = expect_literal(end, ",\"seed\":", line_no);
    errno = 0;
    a.job_seed = std::strtoull(p, &end, 10);
    if (end == p || errno == ERANGE) {
      throw std::invalid_argument(
          "parse_arrivals_jsonl: bad seed on line " + std::to_string(line_no));
    }
    p = expect_literal(end, "}", line_no);
    if (*p != '\0') {
      throw std::invalid_argument(
          "parse_arrivals_jsonl: trailing characters on line " +
          std::to_string(line_no));
    }
    out.push_back(a);
  }
  return out;
}

}  // namespace tlb::svc
