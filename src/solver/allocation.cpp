#include "solver/allocation.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "solver/maxflow.hpp"
#include "solver/mincost_flow.hpp"

namespace tlb::solver {

namespace {

/// Cap on the bisection's feasibility probes; the 1e-10 relative tolerance
/// is reached well before it.
constexpr int kMaxBisections = 100;

struct Shape {
  int appranks = 0;
  int nodes = 0;
  std::vector<int> residual;     // node capacity after 1 core per worker
  std::vector<int> home;         // home node per apprank (first neighbour)
  double total_demand_cap = 0.0;

  // Flow vertex ids.
  [[nodiscard]] int src() const { return 0; }
  [[nodiscard]] int apr(int a) const { return 1 + a; }
  [[nodiscard]] int nod(int n) const { return 1 + appranks + n; }
  [[nodiscard]] int snk() const { return 1 + appranks + nodes; }
  [[nodiscard]] int vertex_count() const { return 2 + appranks + nodes; }
};

Shape make_shape(const AllocationProblem& p) {
  assert(p.graph != nullptr);
  const auto& g = *p.graph;
  Shape s;
  s.appranks = g.left_count();
  s.nodes = g.right_count();
  assert(static_cast<int>(p.work.size()) == s.appranks);
  assert(static_cast<int>(p.node_cores.size()) == s.nodes);

  s.residual.resize(static_cast<std::size_t>(s.nodes));
  for (int n = 0; n < s.nodes; ++n) {
    const int workers = g.right_degree(n);
    const int cores = p.node_cores[static_cast<std::size_t>(n)];
    if (workers > cores) {
      throw InfeasibleAllocation(
          "node hosts more workers than cores; cannot give 1 core each");
    }
    s.residual[static_cast<std::size_t>(n)] = cores - workers;
  }
  s.home.resize(static_cast<std::size_t>(s.appranks));
  for (int a = 0; a < s.appranks; ++a) {
    assert(g.left_degree(a) >= 1 && "apprank with no home node");
    s.home[static_cast<std::size_t>(a)] = g.neighbors_of_left(a).front();
  }
  return s;
}

/// Per-apprank extra-core demand at objective value t (beyond the 1 core
/// per worker it already holds).
std::vector<double> demands_at(const AllocationProblem& p, const Shape& s,
                               double t) {
  std::vector<double> d(static_cast<std::size_t>(s.appranks), 0.0);
  for (int a = 0; a < s.appranks; ++a) {
    const double need = p.work[static_cast<std::size_t>(a)] / t;
    const double have = p.graph->left_degree(a);
    d[static_cast<std::size_t>(a)] = std::max(0.0, need - have);
  }
  return d;
}

bool feasible_at(const AllocationProblem& p, const Shape& s, double t) {
  const auto demand = demands_at(p, s, t);
  const double total =
      std::accumulate(demand.begin(), demand.end(), 0.0);
  if (total <= 0.0) return true;
  MaxFlow mf(s.vertex_count());
  for (int a = 0; a < s.appranks; ++a) {
    if (demand[static_cast<std::size_t>(a)] > 0.0) {
      mf.add_edge(s.src(), s.apr(a), demand[static_cast<std::size_t>(a)]);
    }
    for (int n : p.graph->neighbors_of_left(a)) {
      mf.add_edge(s.apr(a), s.nod(n),
                  s.residual[static_cast<std::size_t>(n)]);
    }
  }
  for (int n = 0; n < s.nodes; ++n) {
    if (s.residual[static_cast<std::size_t>(n)] > 0) {
      mf.add_edge(s.nod(n), s.snk(), s.residual[static_cast<std::size_t>(n)]);
    }
  }
  const double flow = mf.solve(s.src(), s.snk());
  return flow >= total - (1e-9 * total + 1e-9);
}

}  // namespace

AllocationResult solve_allocation(const AllocationProblem& p) {
  const Shape s = make_shape(p);
  const auto& g = *p.graph;

  AllocationResult result;
  result.fractional.resize(static_cast<std::size_t>(s.appranks));
  result.cores.resize(static_cast<std::size_t>(s.appranks));
  for (int a = 0; a < s.appranks; ++a) {
    result.fractional[static_cast<std::size_t>(a)].assign(
        static_cast<std::size_t>(g.left_degree(a)), 1.0);
  }

  const double total_work =
      std::accumulate(p.work.begin(), p.work.end(), 0.0);
  double t_star = 0.0;
  if (total_work > 0.0) {
    // Bisection bounds: t_hi is feasible with zero extra demand; t_lo is a
    // valid lower bound (total work over total cores; and each apprank's
    // work over everything it could ever reach).
    double t_hi = 0.0;
    for (int a = 0; a < s.appranks; ++a) {
      t_hi = std::max(t_hi, p.work[static_cast<std::size_t>(a)] /
                                static_cast<double>(g.left_degree(a)));
    }
    const int total_cores =
        std::accumulate(p.node_cores.begin(), p.node_cores.end(), 0);
    double t_lo = total_work / std::max(1, total_cores);
    for (int a = 0; a < s.appranks; ++a) {
      double reach = g.left_degree(a);
      for (int n : g.neighbors_of_left(a)) {
        reach += s.residual[static_cast<std::size_t>(n)];
      }
      t_lo = std::max(t_lo, p.work[static_cast<std::size_t>(a)] / reach);
    }
    t_lo = std::min(t_lo, t_hi);

    if (!feasible_at(p, s, t_lo)) {
      for (int iter = 0; iter < kMaxBisections && t_hi - t_lo > 1e-10 * t_hi;
           ++iter) {
        const double mid = 0.5 * (t_lo + t_hi);
        if (feasible_at(p, s, mid)) {
          t_hi = mid;
        } else {
          t_lo = mid;
        }
      }
      t_star = t_hi;
    } else {
      t_star = t_lo;
    }

    // Route the optimum with minimal offloading: home edges cost 0,
    // helper edges cost 1.
    const double t_route = t_star * (1.0 + 1e-9);
    const auto demand = demands_at(p, s, t_route);
    const double total_demand =
        std::accumulate(demand.begin(), demand.end(), 0.0);
    if (total_demand > 0.0) {
      MinCostFlow mcmf(s.vertex_count());
      // edge ids for (a, j) queries
      std::vector<std::vector<int>> eid(static_cast<std::size_t>(s.appranks));
      for (int a = 0; a < s.appranks; ++a) {
        if (demand[static_cast<std::size_t>(a)] > 0.0) {
          mcmf.add_edge(s.src(), s.apr(a), demand[static_cast<std::size_t>(a)],
                        0.0);
        }
        const auto& nb = g.neighbors_of_left(a);
        eid[static_cast<std::size_t>(a)].reserve(nb.size());
        for (int n : nb) {
          const double cost = (n == s.home[static_cast<std::size_t>(a)]) ? 0.0 : 1.0;
          eid[static_cast<std::size_t>(a)].push_back(mcmf.add_edge(
              s.apr(a), s.nod(n), s.residual[static_cast<std::size_t>(n)],
              cost));
        }
      }
      for (int n = 0; n < s.nodes; ++n) {
        if (s.residual[static_cast<std::size_t>(n)] > 0) {
          mcmf.add_edge(s.nod(n), s.snk(),
                        s.residual[static_cast<std::size_t>(n)], 0.0);
        }
      }
      mcmf.solve(s.src(), s.snk(), total_demand);
      for (int a = 0; a < s.appranks; ++a) {
        const auto& nb = g.neighbors_of_left(a);
        for (std::size_t j = 0; j < nb.size(); ++j) {
          const double f =
              mcmf.flow_on(eid[static_cast<std::size_t>(a)][j]);
          result.fractional[static_cast<std::size_t>(a)][j] += f;
          if (nb[j] != s.home[static_cast<std::size_t>(a)]) {
            result.offloaded_cores += f;
          }
        }
      }
    }
  }
  result.objective = t_star;

  // Every core must have an owner: hand each node's unassigned cores to its
  // resident home appranks (or, if none, spread over all its workers).
  std::vector<double> node_assigned(static_cast<std::size_t>(s.nodes), 0.0);
  for (int a = 0; a < s.appranks; ++a) {
    const auto& nb = g.neighbors_of_left(a);
    for (std::size_t j = 0; j < nb.size(); ++j) {
      node_assigned[static_cast<std::size_t>(nb[j])] +=
          result.fractional[static_cast<std::size_t>(a)][j];
    }
  }
  for (int n = 0; n < s.nodes; ++n) {
    const double leftover =
        p.node_cores[static_cast<std::size_t>(n)] -
        node_assigned[static_cast<std::size_t>(n)];
    if (leftover <= 1e-12) continue;
    // Home appranks of node n and their adjacency slot for n.
    std::vector<std::pair<int, std::size_t>> targets;
    for (int a : g.neighbors_of_right(n)) {
      const auto& nb = g.neighbors_of_left(a);
      for (std::size_t j = 0; j < nb.size(); ++j) {
        if (nb[j] == n &&
            (s.home[static_cast<std::size_t>(a)] == n || targets.empty())) {
          if (s.home[static_cast<std::size_t>(a)] == n) {
            targets.emplace_back(a, j);
          }
        }
      }
    }
    if (targets.empty()) {
      // No home apprank on this node: spread over all resident workers.
      for (int a : g.neighbors_of_right(n)) {
        const auto& nb = g.neighbors_of_left(a);
        for (std::size_t j = 0; j < nb.size(); ++j) {
          if (nb[j] == n) targets.emplace_back(a, j);
        }
      }
    }
    const double share = leftover / static_cast<double>(targets.size());
    for (auto [a, j] : targets) {
      result.fractional[static_cast<std::size_t>(a)][j] += share;
    }
  }

  // Largest-remainder rounding per node; preserves >= 1 per worker (every
  // fractional value is >= 1) and makes per-node sums exact.
  struct Slot {
    int apprank;
    std::size_t j;
    double frac_part;
  };
  for (int n = 0; n < s.nodes; ++n) {
    std::vector<Slot> slots;
    int base_sum = 0;
    for (int a : g.neighbors_of_right(n)) {
      const auto& nb = g.neighbors_of_left(a);
      for (std::size_t j = 0; j < nb.size(); ++j) {
        if (nb[j] != n) continue;
        const double f = result.fractional[static_cast<std::size_t>(a)][j];
        const int base = static_cast<int>(std::floor(f + 1e-9));
        base_sum += base;
        slots.push_back(Slot{a, j, f - base});
      }
    }
    int remaining = p.node_cores[static_cast<std::size_t>(n)] - base_sum;
    std::stable_sort(slots.begin(), slots.end(),
                     [](const Slot& x, const Slot& y) {
                       return x.frac_part > y.frac_part;
                     });
    for (const Slot& slot : slots) {
      const double f =
          result.fractional[static_cast<std::size_t>(slot.apprank)][slot.j];
      int c = static_cast<int>(std::floor(f + 1e-9));
      if (remaining > 0) {
        ++c;
        --remaining;
      }
      auto& row = result.cores[static_cast<std::size_t>(slot.apprank)];
      if (row.size() !=
          static_cast<std::size_t>(g.left_degree(slot.apprank))) {
        row.assign(static_cast<std::size_t>(g.left_degree(slot.apprank)), 0);
      }
      row[slot.j] = c;
    }
  }
  return result;
}

}  // namespace tlb::solver
