// Construction and screening of bipartite biregular expander graphs.
//
// Paper §5.2: each apprank offloads to a small fixed set of nodes chosen
// before execution. The apprank/node incidence forms a bipartite biregular
// graph: every apprank has degree `offloading_degree` (its home node plus
// degree-1 helpers) and every node has degree appranks_per_node * degree.
// Large graphs are generated randomly (random biregular graphs are
// expanders with high probability); graphs up to ~32 nodes are additionally
// screened via the vertex isoperimetric number, and small graphs use a
// deterministic circulant construction known to be well-connected.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "graph/bipartite_graph.hpp"
#include "sim/rng.hpp"

namespace tlb::graph {

/// Vertex expansion of the left partition: the minimum over non-empty
/// subsets A with |A| <= floor(left/2) of |N(A)| / |A| (the paper's minimal
/// 1+epsilon). Exact by subset enumeration when left_count <= exact_limit;
/// otherwise a sampled upper bound using `samples` random subsets refined
/// by greedy local descent.
double vertex_expansion(const BipartiteGraph& g, int exact_limit = 20,
                        int samples = 2000, std::uint64_t seed = 1);

/// Parameters for expander construction.
struct ExpanderParams {
  int nodes = 0;               ///< number of compute nodes (right partition)
  int appranks_per_node = 1;   ///< appranks with home on each node
  int degree = 1;              ///< offloading degree (>= 1); 1 = no offload
  std::uint64_t seed = 42;     ///< generation seed (graphs are deterministic)
  int max_attempts = 64;       ///< regenerations before keeping the best
  /// Screening threshold on the *normalised* expansion: the graph is
  /// accepted when vertex_expansion >= min_expansion / appranks_per_node.
  /// (With p appranks per node, any subset of size |A| = nodes can see at
  /// most `nodes` nodes, so the raw ratio is structurally capped at
  /// ~1/p x |A|-independent bound; home edges guarantee >= 1/p.)
  double min_expansion = 1.0;
  int screen_limit = 32;       ///< paper: screen graphs up to ~32 nodes
};

/// Result of construction: the graph plus its measured quality.
struct ExpanderResult {
  BipartiteGraph graph;
  double expansion = 0.0;  ///< vertex_expansion() of the final graph
  int attempts = 0;        ///< how many candidate graphs were generated
};

/// Builds a bipartite biregular offloading graph. The first neighbour of
/// every apprank is its home node (apprank a lives on node a /
/// appranks_per_node). Throws std::invalid_argument on impossible
/// parameters (e.g. degree > nodes).
ExpanderResult build_expander(const ExpanderParams& params);

/// Home node of an apprank under the canonical block placement.
constexpr int home_node(int apprank, int appranks_per_node) {
  return apprank / appranks_per_node;
}

/// Picks a node for a replacement helper edge when a crash disconnects
/// `apprank` from all of its helpers (tlb::resil expander rewire).
/// Candidates are nodes not already adjacent to the apprank with spare
/// worker capacity (`spare[n]` = cores minus resident workers, > 0); the
/// node with the most spare capacity wins, lowest id on ties, so the
/// choice is deterministic. Returns -1 when no node qualifies.
int pick_replacement_node(const BipartiteGraph& g, int apprank,
                          const std::vector<int>& spare);

/// Serialises a graph to a compact text form: a "tlbgraph 1" header, the
/// left/right counts, then one line per apprank listing its node
/// neighbours. The runtime rebuilds the expander from its seed in every
/// run rather than reading a stored copy.
std::string serialize(const BipartiteGraph& g);

}  // namespace tlb::graph
