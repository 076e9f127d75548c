// Physical interconnect topology: links, switches, deterministic routes.
//
// A NetTopology is a static description of the fabric between compute
// nodes: a set of directed links (NIC injection/ejection plus leaf<->spine
// links) and a precomputed route — an ordered list of link ids — for
// every (src, dst) node pair. Routing is deterministic: the route of a
// pair is a pure function of the topology parameters, so two Fabric
// instances built from the same NetConfig route identically and
// simulations are reproducible.
//
// fat_tree() builds nodes -> leaf switches -> spines. Same-leaf routes
// stay under the leaf ({inject, eject}); cross-leaf routes add an uplink
// and a downlink through a spine chosen by a fixed per-pair hash (static
// ECMP — real fabrics hash flows, we hash the pair so the choice is
// reproducible). A single leaf holding every node is a non-blocking
// switch whose only contention points are the per-node NICs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace tlb::net {

using LinkId = int;
using NodeId = int;

enum class LinkKind {
  NicInject,  ///< node -> its switch (injection cap)
  NicEject,   ///< switch -> node (ejection cap)
  LeafUp,     ///< leaf switch -> spine
  LeafDown,   ///< spine -> leaf switch
};

struct Link {
  LinkKind kind = LinkKind::NicInject;
  double capacity = 0.0;        ///< bytes/s, nominal (before faults)
  std::string name;             ///< e.g. "nic3.in", "leaf0->spine1"
};

class NetTopology {
 public:
  /// Two-level fat-tree: ceil(nodes / leaf_radix) leaf switches, `spines`
  /// spine switches, a leaf<->spine link pair per (leaf, spine). Same-leaf
  /// paths cost `latency`; cross-leaf paths cost latency + 2 * per_hop.
  static NetTopology fat_tree(int nodes, int leaf_radix, int spines,
                              double nic_bandwidth, double uplink_bandwidth,
                              sim::SimTime latency, sim::SimTime per_hop);

  [[nodiscard]] int node_count() const { return nodes_; }
  [[nodiscard]] int link_count() const {
    return static_cast<int>(links_.size());
  }
  [[nodiscard]] const Link& link(LinkId l) const {
    return links_.at(static_cast<std::size_t>(l));
  }

  /// Ordered link ids a payload from `src` to `dst` crosses. Empty iff
  /// src == dst (intra-node traffic never enters the fabric).
  [[nodiscard]] const std::vector<LinkId>& route(NodeId src,
                                                 NodeId dst) const {
    return routes_[index(src, dst)];
  }

  /// Wire latency of the path (independent of load).
  [[nodiscard]] sim::SimTime path_latency(NodeId src, NodeId dst) const {
    return latencies_[index(src, dst)];
  }

  /// Leaf switch of a node.
  [[nodiscard]] int leaf_of(NodeId n) const { return n / leaf_radix_; }
  [[nodiscard]] int leaf_count() const { return leaves_; }

  /// All LeafUp link ids (the classic congestion points; idle on a single
  /// leaf, which routes nothing through a spine).
  [[nodiscard]] std::vector<LinkId> leaf_uplinks() const;

 private:
  [[nodiscard]] std::size_t index(NodeId src, NodeId dst) const {
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(nodes_) +
           static_cast<std::size_t>(dst);
  }

  int nodes_ = 0;
  int leaves_ = 0;
  int leaf_radix_ = 0;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> routes_;  ///< nodes x nodes
  std::vector<sim::SimTime> latencies_;      ///< nodes x nodes
};

}  // namespace tlb::net
