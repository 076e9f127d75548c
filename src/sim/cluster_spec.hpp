// Static description of the simulated cluster hardware.
//
// Mirrors the two machines used in the paper:
//  - MareNostrum 4: 48 cores/node, homogeneous 1.0 speed, 100 Gb/s
//    Omni-Path (~12.5 GB/s, ~2 us latency).
//  - Nord3: 16 cores/node, "slow node" runs at 1.8 GHz vs 3.0 GHz,
//    i.e. a 0.6 speed factor.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace tlb::sim {

/// One compute node: a number of identical cores and a speed factor.
/// A task with `work` core-seconds of nominal work takes work / speed
/// wall-clock seconds on one core of this node.
struct NodeSpec {
  int cores = 48;
  double speed = 1.0;
};

/// Interconnect cost model: a point-to-point transfer of `bytes` costs
/// latency + bytes / bandwidth seconds. Links are not serialised (full
/// fat-tree assumption, as on MareNostrum 4). For a contention-aware
/// model of the same hardware, see tlb::net (RuntimeConfig::net).
///
/// The intra-node (shared-memory) copy path is part of the spec too, so
/// heterogeneous-node experiments can vary it: transfers between ranks on
/// the same node cost shm_latency + bytes / shm_bandwidth and are never
/// perturbed by link faults.
struct LinkSpec {
  SimTime latency = 2e-6;          // 2 us
  double bandwidth = 12.5e9;       // bytes/s (100 Gb/s)
  SimTime shm_latency = 2e-7;      // 200 ns
  double shm_bandwidth = 80e9;     // bytes/s

  [[nodiscard]] SimTime shm_transfer_time(std::uint64_t bytes) const {
    return shm_latency + static_cast<double>(bytes) / shm_bandwidth;
  }
};

struct ClusterSpec {
  std::vector<NodeSpec> nodes;
  LinkSpec link;

  [[nodiscard]] int node_count() const { return static_cast<int>(nodes.size()); }

  [[nodiscard]] int total_cores() const {
    int c = 0;
    for (const auto& n : nodes) c += n.cores;
    return c;
  }

  /// Aggregate compute capacity in nominal core-units (sum of cores*speed);
  /// the denominator of the perfect-balance execution-time bound.
  [[nodiscard]] double total_capacity() const {
    double cap = 0.0;
    for (const auto& n : nodes) cap += n.cores * n.speed;
    return cap;
  }

  /// Homogeneous cluster of `n` nodes with `cores` cores each.
  static ClusterSpec homogeneous(int n, int cores, double speed = 1.0) {
    assert(n > 0 && cores > 0 && speed > 0.0);
    ClusterSpec spec;
    spec.nodes.assign(static_cast<std::size_t>(n), NodeSpec{cores, speed});
    return spec;
  }

  /// Homogeneous cluster with per-node speed overrides: each (index, speed)
  /// pair pins one node's speed factor. Indices must be in range, distinct,
  /// and speeds positive.
  static ClusterSpec with_speeds(
      int n, int cores, const std::vector<std::pair<int, double>>& overrides) {
    ClusterSpec spec = homogeneous(n, cores);
    for (std::size_t i = 0; i < overrides.size(); ++i) {
      const auto& [index, speed] = overrides[i];
      assert(index >= 0 && index < n && "speed override index out of range");
      assert(speed > 0.0 && "speed override must be positive");
      for (std::size_t j = 0; j < i; ++j) {
        assert(overrides[j].first != index &&
               "duplicate node index in speed overrides");
        (void)j;
      }
      spec.nodes[static_cast<std::size_t>(index)].speed = speed;
    }
    return spec;
  }

  /// Homogeneous cluster with one slow node (paper §7.5: Nord3 with one
  /// node at 1.8 GHz instead of 3.0 GHz => factor 0.6).
  static ClusterSpec with_slow_node(int n, int cores, int slow_index,
                                    double slow_speed) {
    return with_speeds(n, cores, {{slow_index, slow_speed}});
  }
};

}  // namespace tlb::sim
