// Configuration of the service-style traffic subsystem (tlb::svc).
//
// Every other workload in this repo is a single-app batch run measured by
// makespan. tlb::svc instead models the cluster as a *service*: app
// instances (jobs) arrive continuously from an open-loop, seeded arrival
// process, contend for nodes, and are measured by p50/p99 job latency and
// goodput (jobs completing within their deadline class's SLO). An
// admission/overload-control layer in the style of Envoy's traffic
// management — token-bucket rate limiting, a gradient-based adaptive
// concurrency limit, retry budgets, and load shedding by deadline class —
// keeps the service degrading gracefully instead of collapsing when the
// offered load exceeds capacity.
//
// RuntimeConfig::svc carries this struct. The default (enabled = false)
// is inert: nothing in core::ClusterRuntime reads it, so plain runs stay
// bit-identical to a build without the subsystem. The svc::JobManager is
// the separate entry point that consumes an enabled config.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace tlb::svc {

/// Shape of the open-loop arrival process.
enum class ArrivalShape {
  /// Homogeneous Poisson process at ArrivalConfig::rate.
  Poisson,
  /// Two-state Markov-modulated Poisson process: a burst state at
  /// rate * kBurstFactor entered for an exponentially-distributed dwell
  /// (svc/arrivals.hpp), tuned so the long-run mean rate stays
  /// ArrivalConfig::rate.
  Bursty,
  /// Non-homogeneous Poisson (thinning) with a sinusoidal rate
  /// rate * (1 + amplitude * sin(2*pi*t / period)) — the compressed
  /// day/night cycle of the "millions of users" framing.
  Diurnal,
  /// Replay of a recorded arrival log (ArrivalConfig::trace): no RNG
  /// draws at all, so generate → dump → replay is bit-identical.
  Trace,
};

/// Canonical name ("poisson", "bursty", "diurnal", "trace") — inverse of
/// parse_arrival_shape.
[[nodiscard]] inline const char* to_string(ArrivalShape shape) {
  switch (shape) {
    case ArrivalShape::Poisson: return "poisson";
    case ArrivalShape::Bursty: return "bursty";
    case ArrivalShape::Diurnal: return "diurnal";
    case ArrivalShape::Trace: return "trace";
  }
  return "?";
}

/// Parses an arrival-shape name. Unknown names throw std::invalid_argument
/// listing the valid values — never a silent fallback.
[[nodiscard]] inline ArrivalShape parse_arrival_shape(
    const std::string& name) {
  if (name == "poisson") return ArrivalShape::Poisson;
  if (name == "bursty") return ArrivalShape::Bursty;
  if (name == "diurnal") return ArrivalShape::Diurnal;
  if (name == "trace") return ArrivalShape::Trace;
  throw std::invalid_argument("unknown arrival shape \"" + name +
                              "\" (valid: poisson, bursty, diurnal, trace)");
}

/// One job arrival. `job_seed` drives the instance's workload draws
/// (task durations) — derived from a dedicated RNG stream so two shapes
/// with the same seed build comparable jobs. Lives here (not arrivals.hpp)
/// so ArrivalConfig can carry a recorded trace of them.
struct Arrival {
  double time = 0.0;
  int template_index = 0;
  std::uint64_t job_seed = 0;
};

/// Template an arriving job instance is drawn from: the shape of the app
/// (size, imbalance, data volume) plus its service class. Each admitted
/// job becomes one ClusterRuntime execution of a SyntheticWorkload with
/// these parameters on a `nodes`-node partition of the shared cluster.
struct JobTemplate {
  std::string name = "job";
  int nodes = 2;                  ///< partition size (allocated exclusively)
  int appranks_per_node = 1;
  int degree = 2;                 ///< offloading degree inside the partition
  int iterations = 2;
  int tasks_per_rank = 24;
  double base_duration = 0.020;   ///< mean task duration, seconds
  double imbalance = 1.5;         ///< Equation-2 imbalance of the instance
  std::uint64_t bytes_per_task = 64 * 1024;
  /// Deadline class: 0 is the most latency-sensitive and shed last;
  /// higher classes are shed earlier under overload (see
  /// AdmissionConfig::class_fractions).
  int deadline_class = 1;
  /// SLO: a job meets its deadline when arrival-to-completion latency
  /// (queueing included) stays within this many seconds.
  double deadline = 2.0;
  /// Relative arrival frequency among the configured templates.
  double weight = 1.0;
};

struct ArrivalConfig {
  ArrivalShape shape = ArrivalShape::Poisson;
  double rate = 4.0;      ///< mean arrivals per second
  double horizon = 30.0;  ///< arrivals stop at this simulated time
  /// Hard cap on emitted arrivals (safety net for misconfigured rates);
  /// 0 = unlimited.
  int max_arrivals = 0;

  // Bursty (MMPP-2) shape.
  double burst_fraction = 0.2;  ///< long-run fraction of time in burst

  // Diurnal shape.
  double diurnal_period = 30.0;
  double diurnal_amplitude = 0.8;  ///< in [0, 1)

  /// Trace shape: the recorded log to replay, monotone non-decreasing in
  /// time. Ignored by the synthetic shapes; see dump_arrivals_jsonl /
  /// parse_arrivals_jsonl (arrivals.hpp) for the on-disk format.
  std::vector<Arrival> trace;
};

/// Envoy-style admission / overload control. Disabled, every arrival is
/// queued unboundedly (the congestion-collapse baseline of fig15).
struct AdmissionConfig {
  bool enabled = false;

  /// Token bucket at the front door: `bucket_rate` tokens/s refill up to
  /// `bucket_burst`; an arrival finding the bucket empty is shed (or
  /// retried, see the retry budget). 0 disables the bucket, leaving the
  /// concurrency limit as the only gate.
  double bucket_rate = 0.0;
  double bucket_burst = 16.0;

  /// Gradient-based adaptive concurrency limit (Envoy adaptive-concurrency
  /// / Netflix concurrency-limits): every `update_window` completed jobs,
  ///   gradient  = clamp(tolerance * min_latency / sample_p50, 0.5, 2.0)
  ///   new_limit = clamp(limit * gradient [+ sqrt(limit) headroom when
  ///               gradient >= 1], min_limit, max_limit)
  /// so sustained latency inflation beyond `tolerance` times the observed
  /// floor shrinks the number of jobs admitted concurrently.
  int initial_limit = 4;
  int min_limit = 1;
  int max_limit = 64;
  double tolerance = 2.0;
  int update_window = 8;

  /// Per-deadline-class load shedding: class c is admitted only while
  /// running + queued jobs < limit * class_fractions[c] (missing entries
  /// inherit the last one). Lower classes keep headroom longer, so under
  /// overload the batch tier sheds first — priority load shedding.
  std::vector<double> class_fractions = {1.0, 0.9, 0.7};

  /// Retry budget (Envoy: retries may be at most kRetryRatio of the
  /// in-flight jobs plus kRetryBase, svc/admission.hpp): a shed arrival
  /// whose budget allows it re-arrives after `retry_backoff * 2^attempt`
  /// seconds, at most `retry_max` times. Bounds retry amplification
  /// during overload.
  double retry_backoff = 0.5;
  int retry_max = 2;
};

/// Per-tenant (per-template) circuit breaker: K consecutive SLO misses
/// trip the tenant open; while open its arrivals are shed at the door
/// (ShedBreaker) so one misbehaving tenant cannot wedge the shared FCFS
/// queue for everyone else. After `open_duration` (scaled by
/// `backoff_factor` per consecutive trip, capped at `max_open_duration`)
/// a single half-open probe job is let through; `half_open_successes`
/// SLO-met completions close the breaker, one more miss re-trips it.
struct BreakerConfig {
  bool enabled = false;
  int failure_threshold = 3;      ///< consecutive SLO misses to trip
  double open_duration = 2.0;     ///< base open interval, seconds
  double backoff_factor = 2.0;    ///< per-consecutive-trip multiplier
  double max_open_duration = 30.0;
  int half_open_successes = 1;    ///< probe successes needed to close
};

struct SvcConfig {
  /// Master switch. False (the default) is inert: the core runtime never
  /// reads this struct, and svc::JobManager refuses a disabled config.
  bool enabled = false;

  ArrivalConfig arrivals;
  AdmissionConfig admission;
  BreakerConfig breaker;  ///< per-tenant circuit breakers

  /// Job templates arrivals are drawn from (weighted). Empty is rejected
  /// by the JobManager — there is no implicit default job.
  std::vector<JobTemplate> templates;

  /// Cross-tenant interconnect coupling: each launched job's link
  /// bandwidth is derated to bw / (1 + fabric_pressure * co_running)
  /// where co_running counts the other jobs in flight at launch — a
  /// static approximation of sharing the backbone with its neighbours
  /// (partitions are node-disjoint, so NIC/leaf contention is already
  /// modelled inside each job by RuntimeConfig::net). 0 disables.
  double fabric_pressure = 0.0;
};

}  // namespace tlb::svc
