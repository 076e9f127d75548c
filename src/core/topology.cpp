#include "core/topology.hpp"

#include "graph/expander.hpp"

namespace tlb::core {

Topology::Topology(const graph::BipartiteGraph& g, int appranks_per_node)
    : graph_(&g),
      per_node_(appranks_per_node),
      by_apprank_(static_cast<std::size_t>(g.left_count())),
      by_node_(static_cast<std::size_t>(g.right_count())) {
  for (int a = 0; a < g.left_count(); ++a) {
    const int home = graph::home_node(a, per_node_);
    const auto& nb = g.neighbors_of_left(a);
    assert(!nb.empty() && nb.front() == home &&
           "graph must list the home node as the first neighbour");
    for (std::size_t j = 0; j < nb.size(); ++j) {
      WorkerInfo info;
      info.apprank = a;
      info.node = nb[j];
      info.slot = static_cast<int>(j);
      info.is_home = (nb[j] == home);
      const WorkerId w = static_cast<WorkerId>(workers_.size());
      workers_.push_back(info);
      by_apprank_[static_cast<std::size_t>(a)].push_back(w);
      by_node_[static_cast<std::size_t>(nb[j])].push_back(w);
    }
  }
}

WorkerId Topology::add_worker(int apprank, int node) {
  assert(graph_->has_edge(apprank, node) &&
         "add the graph edge before registering the worker");
  assert(worker_of(apprank, node) == -1 && "worker already exists");
  WorkerInfo info;
  info.apprank = apprank;
  info.node = node;
  info.slot =
      static_cast<int>(by_apprank_.at(static_cast<std::size_t>(apprank)).size());
  info.is_home = false;
  const WorkerId w = static_cast<WorkerId>(workers_.size());
  workers_.push_back(info);
  by_apprank_[static_cast<std::size_t>(apprank)].push_back(w);
  by_node_[static_cast<std::size_t>(node)].push_back(w);
  return w;
}

WorkerId Topology::worker_of(int apprank, int node) const {
  for (WorkerId w : workers_of_apprank(apprank)) {
    if (worker(w).node == node) return w;
  }
  return -1;
}

}  // namespace tlb::core
