#include "graph/bipartite_graph.hpp"

#include <algorithm>
#include <cassert>
#include <queue>

namespace tlb::graph {

BipartiteGraph::BipartiteGraph(int left_count, int right_count)
    : adj_left_(static_cast<std::size_t>(left_count)),
      adj_right_(static_cast<std::size_t>(right_count)) {
  assert(left_count >= 0 && right_count >= 0);
}

bool BipartiteGraph::add_edge(int left, int right) {
  assert(left >= 0 && left < left_count());
  assert(right >= 0 && right < right_count());
  if (has_edge(left, right)) return false;
  adj_left_[static_cast<std::size_t>(left)].push_back(right);
  adj_right_[static_cast<std::size_t>(right)].push_back(left);
  ++edges_;
  return true;
}

bool BipartiteGraph::has_edge(int left, int right) const {
  const auto& nb = adj_left_.at(static_cast<std::size_t>(left));
  return std::find(nb.begin(), nb.end(), right) != nb.end();
}

bool BipartiteGraph::is_biregular(int dl, int dr) const {
  for (const auto& nb : adj_left_) {
    if (static_cast<int>(nb.size()) != dl) return false;
  }
  for (const auto& nb : adj_right_) {
    if (static_cast<int>(nb.size()) != dr) return false;
  }
  return true;
}

bool BipartiteGraph::is_connected() const {
  const int l = left_count();
  const int r = right_count();
  if (l + r == 0) return true;
  // BFS over the union of both partitions; right vertices offset by l.
  std::vector<char> seen(static_cast<std::size_t>(l + r), 0);
  std::queue<int> q;
  q.push(0);
  seen[0] = 1;
  int visited = 1;
  while (!q.empty()) {
    const int v = q.front();
    q.pop();
    auto visit = [&](int u) {
      if (!seen[static_cast<std::size_t>(u)]) {
        seen[static_cast<std::size_t>(u)] = 1;
        ++visited;
        q.push(u);
      }
    };
    if (v < l) {
      for (int n : adj_left_[static_cast<std::size_t>(v)]) visit(l + n);
    } else {
      for (int a : adj_right_[static_cast<std::size_t>(v - l)]) visit(a);
    }
  }
  return visited == l + r;
}

int BipartiteGraph::neighborhood_size(std::span<const int> subset) const {
  std::vector<char> seen(static_cast<std::size_t>(right_count()), 0);
  int count = 0;
  for (int a : subset) {
    for (int n : neighbors_of_left(a)) {
      if (!seen[static_cast<std::size_t>(n)]) {
        seen[static_cast<std::size_t>(n)] = 1;
        ++count;
      }
    }
  }
  return count;
}

}  // namespace tlb::graph
