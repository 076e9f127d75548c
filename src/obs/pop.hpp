// POP-style efficiency report (tlb::obs), built on TALP busy accounting.
//
// The POP Centre of Excellence methodology — which the source paper's
// TALP module feeds in production — decomposes parallel efficiency into
// multiplicative factors. This report computes, per apprank and whole-run:
//
//   parallel efficiency  PE  = sum_busy / (total_cores * elapsed)
//                              (identical to TALP's aggregate efficiency)
//   load balance         LB  = avg_a(busy_a) / max_a(busy_a)
//   communication eff.  CommE = PE / LB
//                              (= max_a busy_a / (cores_a * elapsed) when
//                              every apprank measures against the same
//                              nominal core count)
//   transfer efficiency  TrE = 1 - transfer_wait / (total_cores * elapsed)
//                              (capacity lost to cores parked waiting on
//                              offload input transfers)
//
// Inputs come from dlb::TalpModule (busy core-seconds per worker) plus the
// span collector's transfer-wait integral; a worker's busy time is charged
// to its apprank, so an apprank's row aggregates its home rank and every
// helper executing on its behalf.
#pragma once

#include <string>
#include <vector>

#include "dlb/talp.hpp"

namespace tlb::obs {

struct PopApprankRow {
  int apprank = -1;
  double busy_core_seconds = 0.0;
  double nominal_cores = 0.0;
  double parallel_efficiency = 0.0;  ///< busy / (nominal_cores * elapsed)
};

struct PopReport {
  double elapsed = 0.0;
  double total_cores = 0.0;
  double parallel_efficiency = 0.0;
  double load_balance = 0.0;
  double communication_efficiency = 0.0;
  double transfer_efficiency = 0.0;
  std::vector<PopApprankRow> appranks;
};

/// Builds the report from the busy core-seconds of workers
/// [0, worker_apprank.size()) in `talp`, charging each worker to the
/// apprank `worker_apprank` names. `total_cores` is the cluster's core
/// count; each apprank measures against an equal share (total_cores /
/// apprank_count), mirroring the initial DROM division.
/// `transfer_wait_core_seconds` is the occupied-not-busy integral (0 when
/// span collection was off).
PopReport pop_report(const dlb::TalpModule& talp,
                     const std::vector<int>& worker_apprank,
                     int apprank_count, double total_cores, double elapsed,
                     double transfer_wait_core_seconds);

/// Fixed-width text rendering in the style of DLB's TALP summary.
std::string render_pop(const PopReport& report);

}  // namespace tlb::obs
