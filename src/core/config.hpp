// Configuration of a ClusterRuntime execution.
#pragma once

#include <cstdint>

#include "core/policies.hpp"
#include "elastic/config.hpp"
#include "hier/config.hpp"
#include "net/config.hpp"
#include "obs/config.hpp"
#include "prof/config.hpp"
#include "resil/config.hpp"
#include "sched/config.hpp"
#include "sim/cluster_spec.hpp"
#include "sim/time.hpp"
#include "svc/config.hpp"

namespace tlb::core {

struct RuntimeConfig {
  sim::ClusterSpec cluster;      ///< nodes, cores, speeds, interconnect
  int appranks_per_node = 1;     ///< MPI ranks with home on each node
  int degree = 1;                ///< offloading degree (1 = no offloading)
  PolicyKind policy = PolicyKind::Global;  ///< DROM allocation policy
  bool lewi = true;              ///< enable fine-grained lend/borrow
  bool drom = true;              ///< enable coarse-grained ownership moves

  /// Global solver invocation period (paper §5.4.2: every two seconds).
  sim::SimTime global_period = 2.0;
  /// Local convergence adjustment period (continuous in the paper; a short
  /// period approximates that).
  sim::SimTime local_period = 0.1;
  /// Modelled wall-clock cost of one global solve (paper: ~57 ms on 32
  /// nodes); the plan is applied after this delay. 0 = instantaneous.
  sim::SimTime solver_latency = 0.0;

  /// Scheduler in-flight threshold per owned core (paper §5.5: two tasks
  /// per core — one running, one prefetching).
  int inflight_per_core = 2;

  /// Friction of running a task on a LeWI-borrowed core (CPU-mask
  /// rebinding, runtime wake-up, no prefetch pipeline): added as occupied
  /// -but-not-busy time at each task start on a core the worker does not
  /// own. This is what keeps borrowed-core utilisation "well under 100%"
  /// (paper §5.5/§7.4) while DROM-owned cores run at full efficiency.
  sim::SimTime borrowed_core_overhead = 0.020;

  /// Exponential smoothing of the per-worker busy-core estimates fed to
  /// the DROM policies: estimate = s * previous + (1-s) * window average.
  /// Damps the allocate/starve oscillation when iteration times are of
  /// the same order as the policy period. 0 = no smoothing.
  double busy_smoothing = 0.5;

  /// Failure detection and graceful degradation (tlb::resil). The default
  /// (DetectionMode::Oracle) keeps the legacy announce-by-fiat behaviour
  /// bit-identical; DetectionMode::Heartbeat turns on phi-accrual
  /// heartbeats, task leases, and outlier quarantine.
  resil::ResilConfig resil;

  /// Contention-aware interconnect (tlb::net). Disabled by default: the
  /// analytic latency + bytes/bandwidth cost model stays in force and the
  /// run is bit-identical to a build without the subsystem. When enabled,
  /// inter-node payloads (eager input transfers, barrier pulls, vmpi
  /// point-to-point messages) become flows over shared fat-tree links with
  /// max-min fair bandwidth sharing.
  net::NetConfig net;

  /// Task scheduler policy (tlb::sched), selected by name from the policy
  /// table (core/sched_table.hpp). The default "locality" reproduces the paper's §5.5 rule
  /// bit-identically; "congestion" feeds fabric link utilization and
  /// per-helper FCT estimates into victim selection; "waittime" throttles
  /// offloading on observed task waits. Unknown names are rejected at
  /// ClusterRuntime construction with the list of valid values.
  sched::SchedConfig sched;

  /// Tuning of the hierarchical two-level scheduler (tlb::hier), read only
  /// when `sched.policy` is "hier": victim selection then goes through
  /// per-node local masters and a global balancer over compact load
  /// summaries.
  hier::HierConfig hier;

  /// Observability (tlb::obs). Off by default; enabling span collection is
  /// pure recording and keeps schedules bit-identical.
  obs::ObsConfig obs;

  /// Elastic node pool (tlb::elastic). Never read by ClusterRuntime, which
  /// runs one job on a fixed cluster — an enabled config is consumed by
  /// svc::JobManager, whose controller decides how many cluster nodes are
  /// powered on (billed in node-seconds).
  elastic::ElasticConfig elastic;

  /// Host-side engine self-profiling (tlb::prof). Off by default; the
  /// disabled path is a single branch on a plain bool (no clock reads, no
  /// atomics). Enabling is record-only — wall-time attribution, alloc
  /// accounting and health snapshots never feed back into the simulation,
  /// so schedules stay bit-identical on vs off. Note the profiler is
  /// process-global: the runtime turns it on when this is set, and
  /// benches reset it between measurement windows.
  prof::ProfConfig prof;

  /// Service-style traffic scenario (tlb::svc). Inert by default and never
  /// read by ClusterRuntime itself — an enabled config is consumed by
  /// svc::JobManager, which launches one ClusterRuntime per arriving job
  /// (with svc reset to disabled in the per-job configs).
  svc::SvcConfig svc;

  std::uint64_t seed = 42;       ///< expander generation seed
  /// Keep the busy / owned / node-busy step series for the trace figures.
  /// False records none of them (timeline marks and offload statistics are
  /// kept either way); the schedule is the same.
  bool record_traces = true;

  [[nodiscard]] bool drom_active() const {
    return drom && policy != PolicyKind::None;
  }
};

}  // namespace tlb::core
