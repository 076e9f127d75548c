// Configuration of the explicit interconnect model (tlb::net).
//
// The default cost model prices every inter-node transfer with an
// uncontended latency + bytes/bandwidth formula (sim::LinkSpec), which
// makes offloading free of congestion. With NetConfig::enabled the
// runtime instead routes payloads as flows over a shared-link fabric
// (net::Fabric) where bandwidth is divided max-min fairly, so the
// degree-vs-congestion trade-off of paper §5 becomes observable.
//
// Fields left at 0 inherit their value from the cluster's LinkSpec, so a
// bare `net.enabled = true` models the same hardware as the analytic
// formula — just with contention.
#pragma once

#include <string>

#include "sim/cluster_spec.hpp"
#include "sim/time.hpp"

namespace tlb::net {

enum class TopologyKind {
  /// Every node connects through one non-blocking crossbar switch: the
  /// only shared resources are the per-node NIC injection/ejection links.
  /// With a single flow in flight this reproduces the analytic
  /// latency + bytes/bandwidth cost exactly.
  Crossbar,
  /// Two-level fat-tree: node -> leaf switch -> spine. Leaf uplinks are
  /// shared by every cross-leaf flow, which is where offloading-degree
  /// pressure shows up (MareNostrum 4's Omni-Path is a fat-tree).
  FatTree,
};

/// Canonical name of a topology ("crossbar", "fat-tree") — the inverse of
/// parse_topology_kind.
[[nodiscard]] const char* to_string(TopologyKind kind);

/// Parses a topology name. Unknown names throw std::invalid_argument
/// listing the valid values — never a silent fallback to a default.
[[nodiscard]] TopologyKind parse_topology_kind(const std::string& name);

struct NetConfig {
  /// Master switch. When false the runtime keeps the analytic LinkSpec
  /// cost model and is bit-identical to a build without tlb::net.
  bool enabled = false;

  TopologyKind topology = TopologyKind::FatTree;

  /// Nodes attached to each leaf switch (FatTree only).
  int leaf_radix = 4;
  /// Spine switches; cross-leaf routes are spread over them by a fixed
  /// per-(src,dst) hash (FatTree only).
  int spines = 2;

  /// Per-NIC injection/ejection cap, bytes/s. 0 = LinkSpec::bandwidth.
  double nic_bandwidth = 0.0;
  /// Per leaf<->spine link bandwidth, bytes/s. 0 = LinkSpec::bandwidth.
  /// Setting this below leaf_radix * nic_bandwidth / spines models an
  /// oversubscribed tree.
  double uplink_bandwidth = 0.0;

  /// Base first-hop latency (NIC + first switch). 0 = LinkSpec::latency.
  sim::SimTime latency = 0.0;
  /// Extra latency per switch-to-switch hop (cross-leaf routes pay two).
  sim::SimTime per_hop_latency = 5e-7;

  /// A link whose utilization reaches this fraction of capacity while
  /// carrying at least two flows is marked congested in the trace.
  double congestion_threshold = 0.95;

  [[nodiscard]] double nic_bw(const sim::LinkSpec& link) const {
    return nic_bandwidth > 0.0 ? nic_bandwidth : link.bandwidth;
  }
  [[nodiscard]] double uplink_bw(const sim::LinkSpec& link) const {
    return uplink_bandwidth > 0.0 ? uplink_bandwidth : link.bandwidth;
  }
  [[nodiscard]] sim::SimTime base_latency(const sim::LinkSpec& link) const {
    return latency > 0.0 ? latency : link.latency;
  }
};

}  // namespace tlb::net
