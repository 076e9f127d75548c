// Global core-allocation solver (paper §5.4.2, Equation 1).
//
//   minimise   max_a  work_a / cores_a
//   subject to every worker (apprank x adjacent node) owns >= 1 core,
//              per-node ownership sums to exactly the node's core count,
//              appranks own cores only on nodes adjacent in the expander
//              graph.
//
// Solved exactly (continuous relaxation) by bisection on the objective
// value t: an allocation with objective <= t exists iff each apprank can be
// given work_a / t cores, a transportation feasibility problem answered by
// max-flow. The allocation realised at the optimum is routed by min-cost
// flow with cost 0 on home edges and cost 1 on helper edges, which
// minimises offloaded work among all optimal allocations — the exact
// version of the paper's 1e-6 "prefer local" incentive. Finally the
// fractional ownership is rounded per node by the largest-remainder method
// so each node's ownership sums exactly to its capacity and every worker
// keeps >= 1 core.
#pragma once

#include <stdexcept>
#include <vector>

#include "graph/bipartite_graph.hpp"

namespace tlb::solver {

struct AllocationProblem {
  /// Offloading graph: left = appranks, right = nodes; the first neighbour
  /// of each apprank must be its home node.
  const graph::BipartiteGraph* graph = nullptr;
  /// Estimated work per apprank (paper: average busy cores, summed over
  /// the apprank's workers). Must be >= 0; all-zero is allowed.
  std::vector<double> work;
  /// Physical cores per node.
  std::vector<int> node_cores;
};

struct AllocationResult {
  /// cores[a][j] = integer cores owned by apprank a's worker on its j-th
  /// adjacent node (same indexing as graph.neighbors_of_left(a)).
  std::vector<std::vector<int>> cores;
  /// Fractional solution before rounding, same indexing.
  std::vector<std::vector<double>> fractional;
  /// Optimal continuous objective value max_a work_a / cores_a
  /// (0 when total work is 0).
  double objective = 0.0;
  /// Total fractional cores placed on non-home workers beyond their
  /// mandatory 1 (diagnostic: the quantity the local policy over-spends).
  double offloaded_cores = 0.0;
};

/// Thrown when a node cannot give each of its resident workers one core.
class InfeasibleAllocation : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Exact continuous solve + min-offload routing + integer rounding.
AllocationResult solve_allocation(const AllocationProblem& problem);

}  // namespace tlb::solver
