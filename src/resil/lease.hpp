// Task leases: the home runtime's table of its outstanding remote
// assignments (paper §5.5 "offloading is final" made failure-aware). Each
// grant draws a fresh, monotonically increasing epoch, so a message that
// names a stale one is told apart; resil::Monitor (resil/monitor.hpp) runs
// the ACK / retransmit / expiry protocol over the table. Keyed by task id
// in a std::map, so iteration order (and thus re-queue order on suspicion)
// is deterministic across standard-library implementations.
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
  double work = 0.0;  ///< the task's work, carried by every offload copy
  sim::EventId timer = sim::kInvalidEvent;  ///< pending expiry event
};

class LeaseTable {
 public:
  /// Grants a fresh lease for `task` (of `work`) on `worker`; epochs are
  /// drawn from an internal monotone counter so no two grants ever share
  /// one.
  LeaseRecord& grant(std::uint64_t task, int worker, double work);

  [[nodiscard]] LeaseRecord* find(std::uint64_t task);
  [[nodiscard]] const LeaseRecord* find(std::uint64_t task) const;

  /// Drops the lease (completion accepted, or task re-queued elsewhere).
  void revoke(std::uint64_t task);

  /// Tasks currently leased to `worker`, in ascending task-id order
  /// (deterministic re-queue order).
  [[nodiscard]] std::vector<std::uint64_t> tasks_on(int worker) const;

  [[nodiscard]] std::size_t size() const { return leases_.size(); }

  /// Retransmit delay before attempt `attempt` (1-based count of
  /// transmissions already made): timeout * backoff^(attempt-1), capped.
  [[nodiscard]] static sim::SimTime backoff_delay(int attempt);

 private:
  std::map<std::uint64_t, LeaseRecord> leases_;
  std::uint64_t next_epoch_ = 1;
};

}  // namespace tlb::resil
