// Multi-tenant job manager (tlb::svc).
//
// Runs the service scenario: jobs arrive from an ArrivalGenerator, pass
// the per-tenant circuit breaker and the admission controller, queue for
// a free node partition, and execute as full-fidelity ClusterRuntime
// instances (one per job) multiplexed on one shared sim::Engine — job
// events interleave in simulated time, so a long-running batch instance
// and a burst of interactive ones genuinely contend for the cluster.
// Partitions are node-exclusive (FCFS over a free-node list);
// cross-tenant pressure shows up as queueing delay and, optionally, as
// the fabric_pressure bandwidth derating.
//
// With RuntimeConfig::elastic enabled the manager also decides how many
// cluster nodes are *powered*: an ElasticController watches queue
// pressure and powers slots up (after a provision delay) or down (idle
// free nodes only — a running job's partition is never reclaimed), and
// every powered second is billed as node-seconds cost. An xDS-style
// control plane (elastic::ControlPlane) accepts mid-run config pushes
// for the admission settings and the elastic bounds — invalid resources
// NACK and roll back.
//
// Measured per job: queue wait, service time, arrival-to-completion
// latency, SLO verdict (latency <= the template's deadline). Aggregated:
// p50/p99 latency, goodput (SLO-met jobs per second of horizon), shed
// rate, node-seconds — all reported in SvcResult.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "elastic/controller.hpp"
#include "elastic/xds.hpp"
#include "svc/admission.hpp"
#include "svc/arrivals.hpp"
#include "svc/breaker.hpp"

namespace tlb::svc {

/// Terminal state of one arrival.
enum class JobOutcome {
  Pending,      ///< not yet decided (only before run() completes)
  Completed,    ///< ran to completion
  ShedBucket,   ///< rejected: token bucket empty, retries exhausted
  ShedLimit,    ///< rejected: concurrency limit, retries exhausted
  ShedBreaker,  ///< rejected: tenant's circuit breaker open
};

struct JobRecord {
  int id = -1;
  int template_index = 0;
  int deadline_class = 0;
  double deadline = 0.0;
  std::uint64_t job_seed = 0;  ///< drives the instance's workload draws
  double arrival = 0.0;   ///< first arrival (retries do not reset it)
  double started = -1.0;  ///< partition allocated, runtime launched
  double finished = -1.0;
  int retries = 0;
  JobOutcome outcome = JobOutcome::Pending;
  bool slo_met = false;

  [[nodiscard]] double queue_wait() const {
    return started >= 0.0 ? started - arrival : -1.0;
  }
  [[nodiscard]] double service() const {
    return finished >= 0.0 ? finished - started : -1.0;
  }
  [[nodiscard]] double latency() const {
    return finished >= 0.0 ? finished - arrival : -1.0;
  }
};

/// Per-deadline-class aggregate.
struct SvcClassRow {
  int deadline_class = 0;
  std::uint64_t arrived = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t slo_met = 0;
};

/// Per-tenant (per-template) aggregate — the unit the circuit breakers
/// protect, so tenant-isolation claims are checked on these rows.
struct SvcTenantRow {
  int template_index = 0;
  std::string name;
  std::uint64_t arrived = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;          ///< all shed outcomes, breaker included
  std::uint64_t shed_breaker = 0;
  std::uint64_t slo_met = 0;
  double latency_p99 = 0.0;        ///< completed jobs only
  std::uint64_t breaker_trips = 0;
  double breaker_open_time_s = 0.0;
};

struct SvcResult {
  std::uint64_t arrived = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t retries = 0;
  std::uint64_t slo_met = 0;

  double elapsed = 0.0;        ///< simulated end time (queue fully drained)
  double horizon = 0.0;        ///< arrival horizon (goodput denominator)
  double goodput = 0.0;        ///< SLO-met jobs per second of horizon
  double shed_rate = 0.0;      ///< shed / arrived
  double latency_p50 = 0.0;    ///< completed jobs, exact order statistics
  double latency_p99 = 0.0;
  double latency_mean = 0.0;
  double queue_wait_p50 = 0.0;
  double queue_wait_p99 = 0.0;
  double service_mean = 0.0;
  int final_limit = 0;         ///< gradient limiter's limit at the end

  // Elastic pool: powered-node-seconds billed over the run (static runs
  // bill node_count * elapsed), the powered high-water mark, and applied
  // scaling decisions.
  double cost_node_seconds = 0.0;
  int peak_nodes = 0;
  std::uint64_t scale_out_events = 0;
  std::uint64_t scale_in_events = 0;

  // Circuit breakers, summed over tenants.
  std::uint64_t shed_breaker = 0;
  std::uint64_t breaker_trips = 0;
  double breaker_open_time_s = 0.0;

  std::uint64_t engine_events = 0;
  std::vector<SvcClassRow> classes;
  std::vector<SvcTenantRow> tenants;
};

class JobManager {
 public:
  /// `base` supplies the shared cluster (base.cluster), the root seed, and
  /// base.svc (which must be enabled with at least one template). Per-job
  /// runtime configs inherit the remaining knobs (policy, lewi/drom,
  /// sched, net, periods) with the partition's nodes substituted.
  /// base.elastic (optional) turns on the powered-node pool.
  explicit JobManager(core::RuntimeConfig base);

  /// Runs the scenario to completion: all arrivals decided, every admitted
  /// job finished, the queue drained. One-shot, like ClusterRuntime::run.
  SvcResult run();

  // Post-run inspection.
  [[nodiscard]] const std::vector<JobRecord>& jobs() const { return records_; }
  [[nodiscard]] const AdmissionController& admission() const {
    return admission_;
  }
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  /// Currently powered node slots (== cluster size when elastic is off).
  [[nodiscard]] int powered_count() const;
  [[nodiscard]] const std::vector<CircuitBreaker>& breakers() const {
    return breakers_;
  }

  /// xDS-style config endpoint. Subscribed types:
  ///   "tlb.svc.admission"  payload "key=value ..."   (controller rebuilt)
  ///   "tlb.elastic.nodes"  payload "min=<n> max=<n>" (controller bounds)
  /// Invalid payloads NACK with a reason and the previously acked resource
  /// stays in force; stale versions are rejected without side effects.
  [[nodiscard]] elastic::ControlPlane& control() { return control_; }

 private:
  /// One launched job: its runtime and workload live from launch until
  /// the first manager event after completion (see finished_).
  struct LaunchedJob {
    int record = -1;
    std::vector<int> nodes;  ///< partition (indices into base cluster)
    std::unique_ptr<core::Workload> workload;
    std::unique_ptr<core::ClusterRuntime> runtime;
  };

  void subscribe_control_types();
  /// Queues arrival `index` (its record id); when it fires it queues the
  /// next one first, so one arrival event is pending at a time.
  void schedule_arrival(std::size_t index);
  void on_arrival(const Arrival& arrival, int record_id, bool is_retry);
  /// Shed-or-retry on a non-admit verdict; updates the record's outcome.
  void reject(const Arrival& arrival, int record_id, AdmitVerdict verdict,
              bool is_probe);
  /// Marks a record's terminal outcome (each record decided exactly once).
  void decide(int record_id, JobOutcome outcome);
  void try_dispatch();
  void launch(int record_id);
  void on_job_done(LaunchedJob* job);
  [[nodiscard]] int running() const {
    return static_cast<int>(launched_.size());
  }
  [[nodiscard]] int in_flight() const {
    return running() + static_cast<int>(pending_.size());
  }
  [[nodiscard]] core::RuntimeConfig job_config(const JobTemplate& tpl,
                                               const std::vector<int>& nodes,
                                               std::uint64_t job_seed) const;

  // Elastic pool.
  void schedule_elastic_tick();
  void elastic_tick();
  void begin_power_up(int node);  ///< starts billing + provision timer
  void power_up(int node);        ///< provision-complete: slot usable
  void power_down(int node);      ///< bills the interval; node must be free
  [[nodiscard]] bool work_remaining() const {
    return decided_ < records_.size();
  }

  core::RuntimeConfig base_;
  SvcConfig svc_;
  sim::Engine engine_;
  AdmissionController admission_;
  elastic::ControlPlane control_;

  bool ran_ = false;             ///< run() is one-shot
  std::vector<int> free_nodes_;  ///< powered and idle; ascending
  /// Admitted, waiting for a partition (record ids, FCFS).
  std::deque<int> pending_;
  std::size_t decided_ = 0;  ///< records with a terminal outcome
  /// The offered arrival sequence, fixed by run(); record i is arrival i.
  std::vector<Arrival> arrivals_;
  std::vector<JobRecord> records_;
  /// Running jobs, in launch order.
  std::vector<std::unique_ptr<LaunchedJob>> launched_;
  /// Completed jobs awaiting destruction. on_job_done() runs inside the
  /// finished runtime's barrier callback, with that runtime's frames on
  /// the stack, so it only retires the job's engine owner and parks the
  /// job here; on_arrival() — a manager event, never nested in a runtime
  /// callback — and the end of run() destroy them.
  std::vector<std::unique_ptr<LaunchedJob>> finished_;

  /// Per-template circuit breakers (empty when svc.breaker is disabled).
  std::vector<CircuitBreaker> breakers_;

  // Powered-node pool state (elastic only; static runs keep every slot
  // powered for the whole run).
  std::unique_ptr<elastic::ElasticController> elastic_ctrl_;
  std::vector<char> powered_;
  std::vector<char> provisioning_slot_;
  std::vector<double> power_on_at_;  ///< billing start of current interval
  int provisioning_ = 0;
  double node_seconds_ = 0.0;        ///< closed-out billing intervals
  int peak_powered_ = 0;
  std::uint64_t scale_outs_ = 0;
  std::uint64_t scale_ins_ = 0;

  /// Outcome counts (arrived ... shed_breaker), taken live at their call
  /// sites; run() fills in the aggregates. Each is counted on its own,
  /// never derived from another or from records_, so the
  /// arrived = completed + shed invariant that tests and perfbench check
  /// stays a real check.
  SvcResult result_;
};

}  // namespace tlb::svc
