#include "graph/expander.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace tlb::graph {

namespace {

/// Exact vertex expansion by subset enumeration; requires left <= 20 and
/// right <= 64 so subsets fit in machine words.
double exact_expansion(const BipartiteGraph& g) {
  const int l = g.left_count();
  assert(l <= 20 && g.right_count() <= 64);
  const int half = l / 2;
  if (half == 0) return static_cast<double>(g.right_count());

  std::vector<std::uint64_t> mask(static_cast<std::size_t>(l), 0);
  for (int a = 0; a < l; ++a) {
    for (int n : g.neighbors_of_left(a)) {
      mask[static_cast<std::size_t>(a)] |= (std::uint64_t{1} << n);
    }
  }
  // neigh[s] = bitmask of N(S) for subset bitmask s, built by lowbit
  // recurrence. 2^20 * 8B = 8 MiB worst case.
  const std::size_t total = std::size_t{1} << l;
  std::vector<std::uint64_t> neigh(total, 0);
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t s = 1; s < total; ++s) {
    const int low = std::countr_zero(s);
    neigh[s] = neigh[s & (s - 1)] | mask[static_cast<std::size_t>(low)];
    const int size = std::popcount(s);
    if (size > half) continue;
    const double ratio =
        static_cast<double>(std::popcount(neigh[s])) / size;
    best = std::min(best, ratio);
  }
  return best;
}

/// Sampled upper bound on the vertex expansion: greedy growth from random
/// seeds, keeping the worst (smallest) |N(A)|/|A| encountered.
double sampled_expansion(const BipartiteGraph& g, int samples,
                         std::uint64_t seed) {
  const int l = g.left_count();
  const int r = g.right_count();
  const int half = l / 2;
  if (half == 0) return static_cast<double>(r);

  sim::Rng rng(seed);
  double best = std::numeric_limits<double>::infinity();
  std::vector<int> touch(static_cast<std::size_t>(r), 0);
  std::vector<char> in_set(static_cast<std::size_t>(l), 0);

  for (int s = 0; s < samples; ++s) {
    std::fill(touch.begin(), touch.end(), 0);
    std::fill(in_set.begin(), in_set.end(), 0);
    int set_size = 0;
    int nb_size = 0;
    // Grow greedily: each step add the apprank contributing the fewest new
    // nodes; record the ratio at every size up to half.
    int current = static_cast<int>(rng.uniform_int(0, l - 1));
    while (set_size < half) {
      in_set[static_cast<std::size_t>(current)] = 1;
      ++set_size;
      for (int n : g.neighbors_of_left(current)) {
        if (touch[static_cast<std::size_t>(n)]++ == 0) ++nb_size;
      }
      best = std::min(best, static_cast<double>(nb_size) / set_size);
      // Pick the next apprank with minimal marginal neighbourhood growth.
      int best_next = -1;
      int best_gain = std::numeric_limits<int>::max();
      for (int a = 0; a < l; ++a) {
        if (in_set[static_cast<std::size_t>(a)]) continue;
        int gain = 0;
        for (int n : g.neighbors_of_left(a)) {
          if (touch[static_cast<std::size_t>(n)] == 0) ++gain;
        }
        if (gain < best_gain) {
          best_gain = gain;
          best_next = a;
        }
      }
      if (best_next < 0) break;
      current = best_next;
    }
  }
  return best;
}

/// Deterministic circulant construction for small graphs: apprank a gets
/// extra edges to nodes (home(a) + j) mod N for j = 1..degree-1. Exactly
/// biregular and connected for degree >= 2.
BipartiteGraph build_circulant(int nodes, int per_node, int degree) {
  const int appranks = nodes * per_node;
  BipartiteGraph g(appranks, nodes);
  for (int a = 0; a < appranks; ++a) {
    const int home = home_node(a, per_node);
    g.add_edge(a, home);
    for (int j = 1; j < degree; ++j) {
      g.add_edge(a, (home + j) % nodes);
    }
  }
  return g;
}

/// Random biregular graph with forced home edges, via configuration-model
/// slot assignment plus conflict repair. Returns nullopt when repair fails.
std::optional<BipartiteGraph> build_random(int nodes, int per_node,
                                           int degree, sim::Rng& rng) {
  const int appranks = nodes * per_node;
  const int extras = degree - 1;
  // Slot multiset: each node offers per_node * extras helper slots.
  std::vector<int> slots;
  slots.reserve(static_cast<std::size_t>(nodes * per_node * extras));
  for (int n = 0; n < nodes; ++n) {
    for (int k = 0; k < per_node * extras; ++k) slots.push_back(n);
  }
  rng.shuffle(slots);

  auto slot_of = [&](int a, int j) -> int& {
    return slots[static_cast<std::size_t>(a * extras + j)];
  };
  auto valid_for = [&](int a, int candidate, int skip_j) {
    if (candidate == home_node(a, per_node)) return false;
    for (int j = 0; j < extras; ++j) {
      if (j != skip_j && slot_of(a, j) == candidate) return false;
    }
    return true;
  };

  // Repair pass: fix apprank-local conflicts (home node or duplicate) by
  // swapping with a random slot elsewhere that keeps both sides valid.
  const int max_swaps = 50 * appranks * std::max(extras, 1);
  int swaps = 0;
  for (int a = 0; a < appranks; ++a) {
    for (int j = 0; j < extras; ++j) {
      while (!valid_for(a, slot_of(a, j), j)) {
        if (++swaps > max_swaps) return std::nullopt;
        const int b = static_cast<int>(rng.uniform_int(0, appranks - 1));
        const int k = static_cast<int>(rng.uniform_int(0, std::max(extras - 1, 0)));
        if (b == a) continue;
        const int va = slot_of(a, j);
        const int vb = slot_of(b, k);
        if (valid_for(a, vb, j) && valid_for(b, va, k)) {
          std::swap(slot_of(a, j), slot_of(b, k));
        }
      }
    }
  }

  BipartiteGraph g(appranks, nodes);
  for (int a = 0; a < appranks; ++a) {
    g.add_edge(a, home_node(a, per_node));
    for (int j = 0; j < extras; ++j) g.add_edge(a, slot_of(a, j));
  }
  return g;
}

}  // namespace

double vertex_expansion(const BipartiteGraph& g, int exact_limit, int samples,
                        std::uint64_t seed) {
  if (g.left_count() == 0) return 0.0;
  if (g.left_count() <= exact_limit && g.right_count() <= 64) {
    return exact_expansion(g);
  }
  return sampled_expansion(g, samples, seed);
}

ExpanderResult build_expander(const ExpanderParams& p) {
  if (p.nodes <= 0 || p.appranks_per_node <= 0) {
    throw std::invalid_argument("expander: nodes and appranks_per_node must be positive");
  }
  if (p.degree < 1 || p.degree > p.nodes) {
    throw std::invalid_argument("expander: degree must be in [1, nodes]");
  }

  ExpanderResult result;
  if (p.degree == 1) {
    // Degenerate baseline: home edges only, no helpers.
    BipartiteGraph g(p.nodes * p.appranks_per_node, p.nodes);
    for (int a = 0; a < g.left_count(); ++a) {
      g.add_edge(a, home_node(a, p.appranks_per_node));
    }
    result.graph = std::move(g);
    result.expansion = vertex_expansion(result.graph);
    result.attempts = 1;
    return result;
  }

  // Small graphs: deterministic circulant ("heuristic-based search or
  // known-optimal solution", paper §5.2).
  if (p.nodes <= 8) {
    result.graph = build_circulant(p.nodes, p.appranks_per_node, p.degree);
    result.expansion = vertex_expansion(result.graph);
    result.attempts = 1;
    return result;
  }

  sim::Rng rng(p.seed);
  double best_expansion = -1.0;
  BipartiteGraph best_graph;
  const bool screen = p.nodes <= p.screen_limit;
  const double threshold = p.min_expansion / p.appranks_per_node;
  for (int attempt = 0; attempt < p.max_attempts; ++attempt) {
    ++result.attempts;
    auto g = build_random(p.nodes, p.appranks_per_node, p.degree, rng);
    if (!g || !g->is_connected()) continue;
    const double ex =
        screen ? vertex_expansion(*g) : vertex_expansion(*g, 0, 200, p.seed);
    if (ex > best_expansion) {
      best_expansion = ex;
      best_graph = std::move(*g);
    }
    if (!screen || best_expansion >= threshold) break;
  }
  if (best_expansion < 0.0) {
    throw std::runtime_error("expander: failed to generate a connected biregular graph");
  }
  result.graph = std::move(best_graph);
  result.expansion = best_expansion;
  return result;
}

std::string serialize(const BipartiteGraph& g) {
  std::ostringstream out;
  out << "tlbgraph 1\n"
      << g.left_count() << ' ' << g.right_count() << '\n';
  for (int a = 0; a < g.left_count(); ++a) {
    const auto& nb = g.neighbors_of_left(a);
    out << nb.size();
    for (int n : nb) out << ' ' << n;
    out << '\n';
  }
  return out.str();
}

int pick_replacement_node(const BipartiteGraph& g, int apprank,
                          const std::vector<int>& spare) {
  int best = -1;
  int best_spare = 0;
  for (int n = 0; n < g.right_count(); ++n) {
    if (g.has_edge(apprank, n)) continue;
    const int s = spare[static_cast<std::size_t>(n)];
    if (s > best_spare) {
      best = n;
      best_spare = s;
    }
  }
  return best;
}

}  // namespace tlb::graph
