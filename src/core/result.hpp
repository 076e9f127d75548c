// Outcome of a ClusterRuntime execution.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "resil/config.hpp"
#include "sched/stats.hpp"

namespace tlb::core {

/// The Heartbeat-mode counters (resil::Counters, all zero under Oracle
/// detection) are inherited.
struct RunResult : resil::Counters {
  /// Simulated time at which the last apprank completed its last
  /// iteration (the paper's execution time / time-to-solution).
  double makespan = 0.0;
  /// Global barrier-to-barrier duration of each iteration.
  std::vector<double> iteration_times;
  /// Lower bound with perfect load balance: per iteration, total work
  /// divided by total compute capacity (cores x speed), summed.
  double perfect_time = 0.0;

  // Offloading statistics.
  std::uint64_t tasks_total = 0;
  std::uint64_t tasks_offloaded = 0;   ///< executed off the home node
  double work_total = 0.0;
  double work_offloaded = 0.0;
  std::uint64_t transfer_bytes = 0;    ///< offload input data moved
  std::uint64_t control_messages = 0;  ///< offload/finish notifications

  // DLB statistics.
  std::uint64_t lewi_lends = 0;
  std::uint64_t lewi_borrows = 0;
  std::uint64_t lewi_reclaims = 0;
  std::uint64_t drom_moves = 0;

  // Fault / resilience statistics (tlb::fault).
  std::uint64_t tasks_reexecuted = 0;  ///< rescued from crashed workers
  std::uint64_t workers_crashed = 0;
  /// Control-plane transmissions lost on the wire; each was retransmitted.
  std::uint64_t retransmissions = 0;

  // Graceful degradation (tlb::resil).
  std::uint64_t policy_downshifts = 0;    ///< solver fallback-chain drops
  std::uint64_t rewired_edges = 0;        ///< expander edges added post-crash
  /// Retired tasks not finished exactly once (nanos::TaskPool::
  /// not_exactly_once); 0 on every correct run.
  std::uint64_t tasks_not_exactly_once = 0;

  // Scheduler policy statistics (tlb::sched).
  std::string sched_policy;        ///< name of the policy that ran
  sched::SchedStats sched;         ///< victim-selection counters

  std::uint64_t events_fired = 0;      ///< simulator events (diagnostic)

  /// Mean observed failure-detection latency (true detections only);
  /// negative when nothing was detected.
  [[nodiscard]] double mean_detection_latency() const {
    return detections > 0
               ? detection_latency_sum / static_cast<double>(detections)
               : -1.0;
  }

  [[nodiscard]] double offload_fraction() const {
    return work_total > 0.0 ? work_offloaded / work_total : 0.0;
  }
  /// makespan relative to the perfect-balance bound (>= 1).
  [[nodiscard]] double vs_perfect() const {
    return perfect_time > 0.0 ? makespan / perfect_time : 0.0;
  }
};

}  // namespace tlb::core
