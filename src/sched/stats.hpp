// Per-policy scheduling counters, surfaced through RunResult and
// dlb::sched_report. Header-only so reporting code can consume the struct
// without linking tlb_sched.
#pragma once

#include <cstdint>

namespace tlb::sched {

struct SchedStats {
  /// pick() calls for offloadable ready tasks (victim selections).
  std::uint64_t decisions = 0;
  /// Decisions where at least one usable remote helper was a candidate —
  /// the opportunities to offload.
  std::uint64_t offloads_considered = 0;
  /// Decisions where the policy chose a different worker than the
  /// locality baseline would have (feedback signals redirected the task).
  std::uint64_t offloads_steered = 0;
  /// Decisions where the policy withheld a remote offload the locality
  /// baseline would have made (task held at home / in the central queue).
  std::uint64_t offloads_suppressed = 0;
  /// Mode changes of an online-adaptive portfolio policy ("adaptive":
  /// locality <-> congestion <-> waittime). 0 for fixed policies.
  std::uint64_t switches = 0;
  /// Per-worker / per-summary state probes performed while deciding: one
  /// per inflight/usable/residency read, one per owned-core scanned by the
  /// in-flight threshold, one per cached node summary consulted. The
  /// scheduling-cost metric the fig14 scaling arm tracks —
  /// state_touched / decisions is the per-decision victim-selection cost.
  std::uint64_t state_touched = 0;

  /// Accumulates `other` into this (the adaptive portfolio folds its
  /// member policies' counters into one total).
  void merge(const SchedStats& other) {
    decisions += other.decisions;
    offloads_considered += other.offloads_considered;
    offloads_steered += other.offloads_steered;
    offloads_suppressed += other.offloads_suppressed;
    switches += other.switches;
    state_touched += other.state_touched;
  }
};

}  // namespace tlb::sched
