// Seeded open-loop arrival generator (tlb::svc).
//
// Emits the arrival sequence of the service scenario: (time, template,
// per-job seed) triples drawn from a Poisson, bursty (MMPP-2), or diurnal
// (thinned non-homogeneous Poisson) process, or replayed verbatim from a
// recorded trace. Deterministic: the sequence is a pure function of
// (ArrivalConfig, template weights, seed) — independent of admission
// decisions or execution, so the same seed offers the identical traffic
// to every configuration under test.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "svc/config.hpp"

namespace tlb::svc {

/// Serializes arrivals as JSON lines, one object per arrival:
///   {"time":<%.17g>,"template":<int>,"seed":<uint64>}
/// %.17g round-trips every finite double exactly through strtod, so
/// generate → dump → parse → replay is bit-identical.
[[nodiscard]] std::string dump_arrivals_jsonl(
    const std::vector<Arrival>& arrivals);

/// Inverse of dump_arrivals_jsonl. Blank lines are skipped; any other
/// deviation from the dumped format throws std::invalid_argument naming
/// the offending line.
[[nodiscard]] std::vector<Arrival> parse_arrivals_jsonl(
    const std::string& text);

/// Bursty shape: burst-state rate multiplier.
inline constexpr double kBurstFactor = 4.0;
/// Bursty shape: mean burst-state dwell, seconds.
inline constexpr double kBurstDwell = 2.0;

class ArrivalGenerator {
 public:
  /// `template_weights` must be non-empty with non-negative entries and a
  /// positive sum; `seed` is typically RuntimeConfig::seed.
  ArrivalGenerator(ArrivalConfig config, std::vector<double> template_weights,
                   std::uint64_t seed);

  /// Next arrival, or nullopt once the horizon (or max_arrivals) is
  /// reached. Monotone non-decreasing times.
  std::optional<Arrival> next();

  /// Drains the generator into a vector (convenience for schedulers and
  /// determinism tests).
  [[nodiscard]] std::vector<Arrival> all();

  [[nodiscard]] int emitted() const { return emitted_; }

 private:
  [[nodiscard]] double burst_rate_high() const;
  [[nodiscard]] double burst_rate_low() const;
  /// Advances now_ to the next arrival instant of the configured shape.
  void advance();

  ArrivalConfig config_;
  std::vector<double> cumulative_weight_;
  sim::Rng rng_;       ///< inter-arrival and template draws
  sim::Rng seed_rng_;  ///< independent per-job seed stream
  double now_ = 0.0;
  bool in_burst_ = false;
  double switch_at_ = 0.0;  ///< next MMPP state toggle
  int emitted_ = 0;
  std::size_t trace_pos_ = 0;  ///< Trace shape: next replay index
};

}  // namespace tlb::svc
