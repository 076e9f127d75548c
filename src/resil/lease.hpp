// Task leases: the home runtime's bookkeeping of its outstanding remote
// assignments (paper §5.5 "offloading is final" made failure-aware).
//
// Every remote assignment is covered by a lease carrying a monotonically
// increasing epoch. The offload message must be acknowledged by the helper
// within a timeout or it is retransmitted with capped exponential backoff;
// when attempts exhaust, the lease expires and the task is re-queued
// elsewhere under a fresh epoch. A completion (or late ACK, or zombie
// execution under temporary link degradation) that names a stale epoch is
// suppressed — this is what makes re-execution exactly-once at the home
// runtime even when a falsely-suspected worker comes back.
//
// The table is keyed by task id in a std::map so iteration order (and thus
// re-queue order on suspicion) is deterministic across standard-library
// implementations.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace tlb::resil {

/// A remote assignment must be acknowledged by the helper within this
/// time, or the offload message is retransmitted.
inline constexpr sim::SimTime kLeaseTimeout = 0.05;
/// Exponential backoff factor between lease retransmits.
inline constexpr double kLeaseBackoff = 2.0;
/// Upper bound on the backoff delay (the "capped" in capped exponential
/// backoff).
inline constexpr sim::SimTime kLeaseTimeoutCap = 0.4;
/// Offload transmissions before the lease is declared expired and the
/// task is re-queued elsewhere.
inline constexpr int kLeaseMaxAttempts = 5;

struct LeaseRecord {
  int worker = -1;            ///< helper holding the lease
  std::uint64_t epoch = 0;    ///< grant generation; stale copies are ignored
  int attempts = 1;           ///< offload transmissions so far
  bool acked = false;         ///< helper acknowledged the assignment
  bool helper_received = false;  ///< at least one offload copy arrived
  /// The helper finished executing and its completion message is in
  /// flight; the worker's in-flight accounting is already settled, so a
  /// re-queue on suspicion must not charge it again.
  bool completion_in_flight = false;
  sim::SimTime granted_at = 0.0;
  sim::EventId timer = sim::kInvalidEvent;  ///< pending expiry event
};

class LeaseTable {
 public:
  /// Grants a fresh lease for `task` on `worker`; epochs are drawn from an
  /// internal monotone counter so no two grants ever share one.
  LeaseRecord& grant(std::uint64_t task, int worker, sim::SimTime now);

  [[nodiscard]] LeaseRecord* find(std::uint64_t task);
  [[nodiscard]] const LeaseRecord* find(std::uint64_t task) const;

  /// Drops the lease (completion accepted, or task re-queued elsewhere).
  void revoke(std::uint64_t task);

  /// Tasks currently leased to `worker`, in ascending task-id order
  /// (deterministic re-queue order).
  [[nodiscard]] std::vector<std::uint64_t> tasks_on(int worker) const;

  [[nodiscard]] std::size_t size() const { return leases_.size(); }
  [[nodiscard]] bool empty() const { return leases_.empty(); }

  /// Retransmit delay before attempt `attempt` (1-based count of
  /// transmissions already made): timeout * backoff^(attempt-1), capped.
  [[nodiscard]] static sim::SimTime backoff_delay(int attempt);

 private:
  std::map<std::uint64_t, LeaseRecord> leases_;
  std::uint64_t next_epoch_ = 1;
};

}  // namespace tlb::resil
