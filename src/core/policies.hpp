// Core-allocation policies driving DROM (paper §5.4).
//
// Both policies consume the measured "average number of busy cores" per
// worker (TALP window averages) and produce, per node, target ownership
// counts that DROM applies. The local convergence policy uses only
// node-local information; the global solver policy solves Equation (1)
// over the whole cluster via solver::solve_allocation.
#pragma once

#include <utility>
#include <vector>

#include "core/topology.hpp"

namespace tlb::core {

enum class PolicyKind {
  None,    ///< static ownership (no DROM adjustments)
  Local,   ///< per-node proportional convergence (§5.4.1)
  Global,  ///< global linear-program solve (§5.4.2)
};

/// Canonical name of a policy ("none", "local", "global"), used by
/// benches/reports so every name rendering agrees.
[[nodiscard]] const char* to_string(PolicyKind kind);

/// Ownership targets for every node: targets[n] lists (worker, cores) for
/// each worker resident on node n; counts sum to node_cores[n], each >= 1.
using OwnershipPlan = std::vector<std::vector<std::pair<WorkerId, int>>>;

/// §5.4.1 — each node independently redistributes its cores proportionally
/// to the resident workers' average busy-core counts.
/// `busy[w]` is the windowed average busy cores of worker w.
/// `alive`, when non-null, masks out crashed workers (tlb::fault): dead
/// workers receive no cores and their cores are split among survivors.
OwnershipPlan local_convergence_plan(const Topology& topo,
                                     const std::vector<int>& node_cores,
                                     const std::vector<double>& busy,
                                     const std::vector<char>* alive = nullptr);

/// §5.4.2 — global solve of Equation (1): per-apprank work = sum of its
/// workers' busy averages; minimise max_a work_a / cores_a subject to
/// adjacency, >= 1 core per worker, node capacities; prefer local cores.
/// `alive`, when non-null, masks out crashed workers: the solve runs over
/// the reduced offloading graph whose edges are the surviving workers.
OwnershipPlan global_solver_plan(const Topology& topo,
                                 const std::vector<int>& node_cores,
                                 const std::vector<double>& busy,
                                 const std::vector<char>* alive = nullptr);

/// Last rung of the tlb::resil solver fallback chain: static proportional
/// ownership ignoring all measurements — each node splits its cores evenly
/// over its usable resident workers (>= 1 each). Depends on nothing that
/// can fail, so it is always available.
OwnershipPlan static_ownership_plan(const Topology& topo,
                                    const std::vector<int>& node_cores,
                                    const std::vector<char>* alive = nullptr);

/// Initial ownership (paper §5.4): each helper rank owns one core; the
/// remaining cores are divided equally among the node's appranks.
OwnershipPlan initial_plan(const Topology& topo,
                           const std::vector<int>& node_cores);

}  // namespace tlb::core
