#include "net/topology.hpp"

#include <stdexcept>

namespace tlb::net {

NetTopology NetTopology::fat_tree(int nodes, int leaf_radix, int spines,
                                  double nic_bandwidth,
                                  double uplink_bandwidth, sim::SimTime latency,
                                  sim::SimTime per_hop) {
  if (nodes <= 0) throw std::invalid_argument("NetTopology: nodes must be > 0");
  if (nic_bandwidth <= 0.0) {
    throw std::invalid_argument("NetTopology: nic_bandwidth must be > 0");
  }
  if (latency < 0.0) {
    throw std::invalid_argument("NetTopology: negative latency");
  }
  if (leaf_radix <= 0 || spines <= 0) {
    throw std::invalid_argument("NetTopology: leaf_radix and spines must be > 0");
  }
  if (uplink_bandwidth <= 0.0) {
    throw std::invalid_argument("NetTopology: uplink_bandwidth must be > 0");
  }
  if (per_hop < 0.0) throw std::invalid_argument("NetTopology: negative per_hop");

  NetTopology t;
  t.nodes_ = nodes;
  t.leaf_radix_ = leaf_radix;
  t.leaves_ = (nodes + leaf_radix - 1) / leaf_radix;
  // Link layout: inject[n] = 2n, eject[n] = 2n + 1, then for each
  // (leaf l, spine s): up = base + 2 * (l * spines + s), down = up + 1.
  for (int n = 0; n < nodes; ++n) {
    t.links_.push_back({LinkKind::NicInject, nic_bandwidth,
                        "nic" + std::to_string(n) + ".in"});
    t.links_.push_back({LinkKind::NicEject, nic_bandwidth,
                        "nic" + std::to_string(n) + ".out"});
  }
  const int base = 2 * nodes;
  for (int l = 0; l < t.leaves_; ++l) {
    for (int s = 0; s < spines; ++s) {
      t.links_.push_back({LinkKind::LeafUp, uplink_bandwidth,
                          "leaf" + std::to_string(l) + "->spine" +
                              std::to_string(s)});
      t.links_.push_back({LinkKind::LeafDown, uplink_bandwidth,
                          "spine" + std::to_string(s) + "->leaf" +
                              std::to_string(l)});
    }
  }
  t.routes_.resize(static_cast<std::size_t>(nodes) * nodes);
  t.latencies_.assign(static_cast<std::size_t>(nodes) * nodes, 0.0);
  for (int s = 0; s < nodes; ++s) {
    for (int d = 0; d < nodes; ++d) {
      if (s == d) continue;
      const int ls = s / leaf_radix;
      const int ld = d / leaf_radix;
      auto& route = t.routes_[t.index(s, d)];
      route.push_back(2 * s);
      if (ls != ld) {
        // Static per-pair spine hash: deterministic, spreads pairs.
        const int spine =
            static_cast<int>((static_cast<std::uint64_t>(s) * 7919u + d) %
                             static_cast<std::uint64_t>(spines));
        route.push_back(base + 2 * (ls * spines + spine));
        route.push_back(base + 2 * (ld * spines + spine) + 1);
        t.latencies_[t.index(s, d)] = latency + 2.0 * per_hop;
      } else {
        t.latencies_[t.index(s, d)] = latency;
      }
      route.push_back(2 * d + 1);
    }
  }
  return t;
}

std::vector<LinkId> NetTopology::leaf_uplinks() const {
  std::vector<LinkId> out;
  for (int l = 0; l < link_count(); ++l) {
    if (links_[static_cast<std::size_t>(l)].kind == LinkKind::LeafUp) {
      out.push_back(l);
    }
  }
  return out;
}

}  // namespace tlb::net
