// Tracks where the current version of each data region lives.
//
// OmpSs-2@Cluster copies data eagerly where required and performs no
// automatic write-back (paper §3.2): after an offloaded task runs on node
// n, its outputs live on n until some task (or the apprank itself, at a
// taskwait / MPI boundary) needs them elsewhere. This index supports the
// scheduler's locality scoring and prices the resulting transfers.
// One instance per apprank (address spaces are isolated, §4).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "nanos/region_index.hpp"
#include "nanos/task.hpp"

namespace tlb::nanos {

class DataLocations {
 public:
  /// Regions not explicitly placed are assumed resident on `home_node`
  /// (the apprank allocated them there).
  explicit DataLocations(int home_node) : home_(home_node) {}

  [[nodiscard]] int home_node() const { return home_; }

  /// Bytes of the task's *input* data (In/InOut) not currently resident on
  /// `node` — the transfer volume needed to run the task there.
  [[nodiscard]] std::uint64_t missing_input_bytes(
      const std::vector<AccessRegion>& accesses, int node) const;

  /// Locality scores of several nodes in one walk: sets `bytes[i]` to
  /// the task's input bytes already resident on `nodes[i]`.
  void resident_input_bytes(const std::vector<AccessRegion>& accesses,
                            const std::vector<int>& nodes,
                            std::vector<std::uint64_t>& bytes) const;

  /// Records that the task executed on `node`: inputs were copied there
  /// and outputs (Out/InOut) now live there.
  void task_executed(const std::vector<AccessRegion>& accesses, int node);

  /// Forces the given ranges to `node` (e.g. the apprank touches results
  /// at an MPI boundary). Returns the bytes that had to move.
  std::uint64_t pull(const std::vector<AccessRegion>& accesses, int node);

  /// Per-source breakdown of missing_input_bytes(): the input bytes that
  /// would have to move to `node`, grouped by the node currently holding
  /// them, in ascending source-node order (deterministic). The totals sum
  /// to missing_input_bytes(). Used by the contention-aware interconnect
  /// (tlb::net) to route one flow per source.
  [[nodiscard]] std::vector<std::pair<int, std::uint64_t>> missing_by_source(
      const std::vector<AccessRegion>& accesses, int node) const;

  /// Per-source breakdown of pull(): relocates the ranges to `node` and
  /// reports where the moved bytes came from, ascending source-node order.
  std::vector<std::pair<int, std::uint64_t>> pull_by_source(
      const std::vector<AccessRegion>& accesses, int node);

  /// Location of a single byte (for tests).
  [[nodiscard]] int location_of(std::uint64_t addr) const;

 private:
  /// Calls visit(bytes, holder) for each piece of [lo, hi) in address
  /// order; bytes outside every run are reported as home-resident.
  template <typename Visit>
  void walk(std::uint64_t lo, std::uint64_t hi, Visit&& visit) const;
  /// Relabels [lo, hi) to `node`, calling moved(bytes, holder) for each
  /// piece not already there.
  template <typename Moved>
  void relocate(std::uint64_t lo, std::uint64_t hi, int node, Moved&& moved);

  int home_;
  RegionIndex<int> runs_;  ///< payload: holder node
};

}  // namespace tlb::nanos
