// Worker-process topology derived from the offloading expander graph.
//
// Every edge (apprank a, node n) of the bipartite graph is one worker
// process: the apprank's own process when n is its home node, a helper
// rank otherwise (paper Fig 2 / Fig 4(d)). This table gives O(1) lookups
// between workers, appranks, adjacency slots, and nodes.
#pragma once

#include <cassert>
#include <vector>

#include "graph/bipartite_graph.hpp"
#include "sim/cluster_spec.hpp"

namespace tlb::core {

using WorkerId = int;

struct WorkerInfo {
  int apprank = -1;
  int node = -1;
  int slot = -1;       ///< index into graph.neighbors_of_left(apprank)
  bool is_home = false;
};

class Topology {
 public:
  Topology(const graph::BipartiteGraph& g, int appranks_per_node);

  [[nodiscard]] int worker_count() const { return static_cast<int>(workers_.size()); }
  [[nodiscard]] int apprank_count() const { return static_cast<int>(by_apprank_.size()); }
  [[nodiscard]] int node_count() const { return static_cast<int>(by_node_.size()); }
  [[nodiscard]] int appranks_per_node() const { return per_node_; }

  [[nodiscard]] const WorkerInfo& worker(WorkerId w) const {
    return workers_.at(static_cast<std::size_t>(w));
  }
  /// Workers of an apprank, in adjacency-slot order (home first).
  [[nodiscard]] const std::vector<WorkerId>& workers_of_apprank(int a) const {
    return by_apprank_.at(static_cast<std::size_t>(a));
  }
  /// Workers resident on a node.
  [[nodiscard]] const std::vector<WorkerId>& workers_on_node(int n) const {
    return by_node_.at(static_cast<std::size_t>(n));
  }
  [[nodiscard]] WorkerId home_worker(int apprank) const {
    return workers_of_apprank(apprank).front();
  }
  [[nodiscard]] int home_node(int apprank) const {
    return worker(home_worker(apprank)).node;
  }
  /// Worker of apprank `a` on node `n`, or -1 when not adjacent.
  [[nodiscard]] WorkerId worker_of(int apprank, int node) const;

  /// Registers a helper worker added mid-run by an expander rewire
  /// (tlb::resil). The corresponding edge must already have been added to
  /// the bipartite graph (as the apprank's last adjacency slot). Returns
  /// the new worker's id.
  WorkerId add_worker(int apprank, int node);

  [[nodiscard]] const graph::BipartiteGraph& graph() const { return *graph_; }

 private:
  const graph::BipartiteGraph* graph_;
  int per_node_;
  std::vector<WorkerInfo> workers_;
  std::vector<std::vector<WorkerId>> by_apprank_;
  std::vector<std::vector<WorkerId>> by_node_;
};

}  // namespace tlb::core
