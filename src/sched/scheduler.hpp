// Pluggable task scheduler (victim selection) for the ClusterRuntime.
//
// The paper's §5.5 scheduling rule — locality-first placement with a
// two-tasks-per-owned-core in-flight throttle and a central overflow
// queue — used to be hard-coded in core/runtime.cpp. This subsystem
// extracts the *decision* (which worker runs a ready offloadable task)
// behind a Scheduler interface so alternative policies can feed runtime
// signals back into the choice:
//   - "locality"   — bit-identical re-implementation of the legacy rule
//                    (default; golden-schedule tests pin it);
//   - "congestion" — locality cost extended with net::Fabric path
//                    utilization and a per-helper EWMA of observed flow
//                    completion times (steers offloads away from
//                    saturated uplinks and slow/quarantine-prone helpers);
//   - "waittime"   — suppresses offloads while observed task queue waits
//                    are short (Samfass-style: offload on evidence of
//                    waiting, not on static scores).
//
// The mechanics of an offload (control messages, leases, transfers,
// dispatch) stay in the runtime; policies only choose the victim. Every
// policy is deterministic: decisions are pure functions of the runtime
// state exposed through RuntimeView and of signals delivered through the
// on_*() hooks, in simulation order.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/topology.hpp"
#include "nanos/data_location.hpp"
#include "nanos/task.hpp"
#include "net/fabric.hpp"
#include "sched/config.hpp"
#include "sched/stats.hpp"
#include "sim/time.hpp"

namespace tlb::sched {

/// Read-only window into the runtime state a scheduling policy may
/// consult. Implemented by core::ClusterRuntime; kept abstract so
/// policies are unit-testable against a fake and tlb_sched never links
/// against tlb_core.
class RuntimeView {
 public:
  virtual ~RuntimeView() = default;
  [[nodiscard]] virtual const core::Topology& topology() const = 0;
  /// Alive and not quarantined: eligible for victim selection.
  [[nodiscard]] virtual bool usable(core::WorkerId w) const = 0;
  /// Assigned + running tasks of the worker.
  [[nodiscard]] virtual int inflight(core::WorkerId w) const = 0;
  /// Cores the worker currently owns (DROM ownership).
  [[nodiscard]] virtual int owned_cores(core::WorkerId w) const = 0;
  /// RuntimeConfig::inflight_per_core (paper §5.5: two per owned core).
  [[nodiscard]] virtual int inflight_per_core() const = 0;
  /// Data residency of the apprank (locality scores, transfer volumes).
  [[nodiscard]] virtual const nanos::DataLocations& locations(
      int apprank) const = 0;
  [[nodiscard]] virtual sim::SimTime now() const = 0;
  /// The fabric (tlb::net), whose path_load / path_capacity are the live
  /// congestion signal, or nullptr when the analytic cost model is active
  /// (no congestion signal).
  [[nodiscard]] virtual const net::Fabric* fabric() const = 0;
};

enum class DecisionKind {
  Baseline,    ///< same choice the locality rule would have made
  Steered,     ///< feedback signals redirected the task to another worker
  Suppressed,  ///< a remote offload was withheld (task held home/centrally)
};

/// Outcome of one victim selection. worker == -1 holds the task in the
/// apprank's central queue (every candidate saturated or vetoed); idle
/// workers steal from that queue as tasks complete (§5.5).
struct Decision {
  core::WorkerId worker = -1;
  DecisionKind kind = DecisionKind::Baseline;
};

class Scheduler {
 public:
  explicit Scheduler(const RuntimeView& view) : view_(view) {}
  virtual ~Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Chooses the worker to run a ready offloadable task, or -1 to hold it
  /// centrally. Must only return usable workers under their in-flight
  /// threshold.
  [[nodiscard]] virtual Decision pick(const nanos::Task& task) = 0;

  // --- feedback signals (no-ops unless a policy overrides them) --------------

  /// A task entered execution on `w` after `wait` seconds between
  /// readiness and its core claim (queue + transfer wait).
  virtual void on_task_started(const nanos::Task& task, core::WorkerId w,
                               sim::SimTime wait) {
    (void)task;
    (void)w;
    (void)wait;
  }
  /// The last input flow of an offloaded task landed at worker `w`,
  /// `fct` seconds after the transfers started (net mode only).
  virtual void on_inputs_landed(core::WorkerId w, sim::SimTime fct) {
    (void)w;
    (void)fct;
  }

  /// Per-policy counters. Virtual so composite policies (the "adaptive"
  /// portfolio) can present a merged view over their sub-policies.
  [[nodiscard]] virtual const SchedStats& stats() const { return stats_; }

 protected:
  /// The legacy §5.5 rule, verbatim: locality-best node (most resident
  /// input bytes, home wins ties) if under its threshold, else the least
  /// loaded usable alternative under the threshold, else -1. Policies use
  /// it both as the baseline for steered/suppressed accounting and as the
  /// fallback when their feedback signal is absent.
  [[nodiscard]] core::WorkerId locality_pick(const nanos::Task& task) const;

  /// The two-tasks-per-owned-core throttle (§5.5). Charges the probe to
  /// SchedStats::state_touched: one for the in-flight read plus one per
  /// owned core. That is the modelled DLB probe cost (the O(cores) global
  /// state the hierarchical scheduler's summaries amortize away), not
  /// host time: the registry answers owned_cores() in O(1).
  [[nodiscard]] bool under_threshold(core::WorkerId w) const {
    const int owned = view_.owned_cores(w);
    stats_.state_touched += 1 + static_cast<std::uint64_t>(owned > 0 ? owned : 1);
    return view_.inflight(w) < view_.inflight_per_core() * owned;
  }

  /// True when the apprank has at least one usable remote candidate under
  /// its threshold (an offload opportunity, for considered accounting).
  [[nodiscard]] bool has_remote_candidate(const nanos::Task& task) const;

  const RuntimeView& view_;
  /// Mutable: the §5.5 helpers above are const (decisions are pure reads
  /// of the runtime state) but still charge their probe costs.
  mutable SchedStats stats_;

 private:
  /// locality_pick() scratch, kept to avoid an allocation per pick: the
  /// candidates' nodes and their resident input bytes.
  mutable std::vector<int> pick_nodes_;
  mutable std::vector<std::uint64_t> pick_bytes_;
};

}  // namespace tlb::sched
