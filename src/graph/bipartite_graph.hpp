// Bipartite graph of appranks (left partition) and nodes (right partition).
//
// An edge (a, n) means apprank a may execute tasks on node n: the edge for
// a's home node corresponds to the apprank process itself, every other edge
// corresponds to a helper rank placed on that node (paper §5.2, Fig 4(d)).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace tlb::graph {

class BipartiteGraph {
 public:
  BipartiteGraph() = default;
  BipartiteGraph(int left_count, int right_count);

  [[nodiscard]] int left_count() const { return static_cast<int>(adj_left_.size()); }
  [[nodiscard]] int right_count() const { return static_cast<int>(adj_right_.size()); }
  [[nodiscard]] int edge_count() const { return edges_; }

  /// Adds an edge; returns false (and does nothing) if it already exists.
  bool add_edge(int left, int right);
  [[nodiscard]] bool has_edge(int left, int right) const;

  /// Neighbours of a left vertex, in insertion order (home node first, by
  /// construction in ExpanderBuilder).
  [[nodiscard]] const std::vector<int>& neighbors_of_left(int left) const {
    return adj_left_.at(static_cast<std::size_t>(left));
  }
  [[nodiscard]] const std::vector<int>& neighbors_of_right(int right) const {
    return adj_right_.at(static_cast<std::size_t>(right));
  }

  [[nodiscard]] int left_degree(int left) const {
    return static_cast<int>(neighbors_of_left(left).size());
  }
  [[nodiscard]] int right_degree(int right) const {
    return static_cast<int>(neighbors_of_right(right).size());
  }

  /// True when every left vertex has degree dl and every right vertex has
  /// degree dr (bipartite biregular, paper §5.2).
  [[nodiscard]] bool is_biregular(int dl, int dr) const;

  /// True when the graph (viewed as undirected over both partitions) is
  /// connected. A degree-1 graph with several nodes is not connected.
  [[nodiscard]] bool is_connected() const;

  /// |N(A)|: number of distinct right vertices adjacent to any left vertex
  /// in `subset`.
  [[nodiscard]] int neighborhood_size(std::span<const int> subset) const;

 private:
  std::vector<std::vector<int>> adj_left_;
  std::vector<std::vector<int>> adj_right_;
  int edges_ = 0;
};

}  // namespace tlb::graph
