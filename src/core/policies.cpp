#include "core/policies.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "solver/allocation.hpp"

namespace tlb::core {

const char* to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::None: return "none";
    case PolicyKind::Local: return "local";
    case PolicyKind::Global: return "global";
  }
  return "?";
}

namespace {

/// Distributes `total` cores over workers proportionally to `weight`,
/// guaranteeing >= 1 each, with largest-remainder rounding.
std::vector<int> proportional_split(const std::vector<double>& weight,
                                    int total) {
  const int n = static_cast<int>(weight.size());
  assert(total >= n && "fewer cores than workers");
  std::vector<int> out(static_cast<std::size_t>(n), 1);
  int rest = total - n;
  const double wsum = std::accumulate(weight.begin(), weight.end(), 0.0);
  if (rest == 0) return out;
  if (wsum <= 0.0) {
    // Nothing measured: split evenly.
    for (int i = 0; rest > 0; i = (i + 1) % n, --rest) {
      ++out[static_cast<std::size_t>(i)];
    }
    return out;
  }
  std::vector<double> share(static_cast<std::size_t>(n));
  std::vector<int> base(static_cast<std::size_t>(n));
  int base_sum = 0;
  for (int i = 0; i < n; ++i) {
    share[static_cast<std::size_t>(i)] =
        rest * weight[static_cast<std::size_t>(i)] / wsum;
    base[static_cast<std::size_t>(i)] =
        static_cast<int>(std::floor(share[static_cast<std::size_t>(i)]));
    base_sum += base[static_cast<std::size_t>(i)];
  }
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int x, int y) {
    const double fx = share[static_cast<std::size_t>(x)] -
                      base[static_cast<std::size_t>(x)];
    const double fy = share[static_cast<std::size_t>(y)] -
                      base[static_cast<std::size_t>(y)];
    return fx > fy;
  });
  int leftover = rest - base_sum;
  for (int i = 0; i < n; ++i) {
    int add = base[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])];
    if (leftover > 0) {
      ++add;
      --leftover;
    }
    out[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] += add;
  }
  return out;
}

}  // namespace

OwnershipPlan initial_plan(const Topology& topo,
                           const std::vector<int>& node_cores) {
  OwnershipPlan plan(static_cast<std::size_t>(topo.node_count()));
  for (int n = 0; n < topo.node_count(); ++n) {
    const auto& residents = topo.workers_on_node(n);
    const int cores = node_cores[static_cast<std::size_t>(n)];
    assert(static_cast<int>(residents.size()) <= cores &&
           "node cannot give each worker one core");
    // Helpers own exactly one core; appranks split the rest equally.
    std::vector<WorkerId> homes;
    int helper_count = 0;
    for (WorkerId w : residents) {
      if (topo.worker(w).is_home) {
        homes.push_back(w);
      } else {
        ++helper_count;
      }
    }
    auto& node_plan = plan[static_cast<std::size_t>(n)];
    const int for_appranks = cores - helper_count;
    assert(!homes.empty() && "every node hosts at least one apprank");
    const int base = for_appranks / static_cast<int>(homes.size());
    int extra = for_appranks % static_cast<int>(homes.size());
    for (WorkerId w : residents) {
      if (topo.worker(w).is_home) {
        int c = base + (extra > 0 ? 1 : 0);
        if (extra > 0) --extra;
        node_plan.emplace_back(w, c);
      } else {
        node_plan.emplace_back(w, 1);
      }
    }
  }
  return plan;
}

OwnershipPlan local_convergence_plan(const Topology& topo,
                                     const std::vector<int>& node_cores,
                                     const std::vector<double>& busy,
                                     const std::vector<char>* alive) {
  OwnershipPlan plan(static_cast<std::size_t>(topo.node_count()));
  for (int n = 0; n < topo.node_count(); ++n) {
    std::vector<WorkerId> residents;
    for (WorkerId w : topo.workers_on_node(n)) {
      if (alive == nullptr || (*alive)[static_cast<std::size_t>(w)]) {
        residents.push_back(w);
      }
    }
    // A node with no usable resident gets an empty node plan; DROM leaves
    // its ownership untouched and the scheduler never picks it.
    if (residents.empty()) continue;
    std::vector<double> weight;
    weight.reserve(residents.size());
    for (WorkerId w : residents) {
      weight.push_back(std::max(0.0, busy[static_cast<std::size_t>(w)]));
    }
    const auto counts =
        proportional_split(weight, node_cores[static_cast<std::size_t>(n)]);
    auto& node_plan = plan[static_cast<std::size_t>(n)];
    for (std::size_t i = 0; i < residents.size(); ++i) {
      node_plan.emplace_back(residents[i], counts[i]);
    }
  }
  return plan;
}

OwnershipPlan static_ownership_plan(const Topology& topo,
                                    const std::vector<int>& node_cores,
                                    const std::vector<char>* alive) {
  OwnershipPlan plan(static_cast<std::size_t>(topo.node_count()));
  for (int n = 0; n < topo.node_count(); ++n) {
    std::vector<WorkerId> residents;
    for (WorkerId w : topo.workers_on_node(n)) {
      if (alive == nullptr || (*alive)[static_cast<std::size_t>(w)]) {
        residents.push_back(w);
      }
    }
    if (residents.empty()) continue;  // no usable resident: no plan
    // All-zero weights make proportional_split fall back to an even split.
    const std::vector<double> weight(residents.size(), 0.0);
    const auto counts =
        proportional_split(weight, node_cores[static_cast<std::size_t>(n)]);
    auto& node_plan = plan[static_cast<std::size_t>(n)];
    for (std::size_t i = 0; i < residents.size(); ++i) {
      node_plan.emplace_back(residents[i], counts[i]);
    }
  }
  return plan;
}

OwnershipPlan global_solver_plan(const Topology& topo,
                                 const std::vector<int>& node_cores,
                                 const std::vector<double>& busy,
                                 const std::vector<char>* alive) {
  // With crashed workers masked out, the solve runs over the reduced
  // bipartite graph whose edges are the surviving workers (slot order is
  // preserved, so each apprank's home edge stays first — home workers
  // cannot crash).
  graph::BipartiteGraph reduced;
  std::vector<std::vector<WorkerId>> slot_workers;
  if (alive != nullptr) {
    reduced = graph::BipartiteGraph(topo.apprank_count(), topo.node_count());
    slot_workers.resize(static_cast<std::size_t>(topo.apprank_count()));
    for (int a = 0; a < topo.apprank_count(); ++a) {
      for (WorkerId w : topo.workers_of_apprank(a)) {
        if (!(*alive)[static_cast<std::size_t>(w)]) continue;
        reduced.add_edge(a, topo.worker(w).node);
        slot_workers[static_cast<std::size_t>(a)].push_back(w);
      }
      assert(!slot_workers[static_cast<std::size_t>(a)].empty());
    }
  }

  solver::AllocationProblem problem;
  problem.graph = alive != nullptr ? &reduced : &topo.graph();
  problem.node_cores = node_cores;
  problem.work.assign(static_cast<std::size_t>(topo.apprank_count()), 0.0);
  for (int a = 0; a < topo.apprank_count(); ++a) {
    double total = 0.0;
    for (WorkerId w : topo.workers_of_apprank(a)) {
      if (alive != nullptr && !(*alive)[static_cast<std::size_t>(w)]) continue;
      total += std::max(0.0, busy[static_cast<std::size_t>(w)]);
    }
    problem.work[static_cast<std::size_t>(a)] = total;
  }
  const auto solution = solver::solve_allocation(problem);

  OwnershipPlan plan(static_cast<std::size_t>(topo.node_count()));
  for (int a = 0; a < topo.apprank_count(); ++a) {
    const auto& workers = alive != nullptr
                              ? slot_workers[static_cast<std::size_t>(a)]
                              : topo.workers_of_apprank(a);
    for (std::size_t j = 0; j < workers.size(); ++j) {
      const WorkerInfo& info = topo.worker(workers[j]);
      plan[static_cast<std::size_t>(info.node)].emplace_back(
          workers[j], solution.cores[static_cast<std::size_t>(a)][j]);
    }
  }
  return plan;
}

}  // namespace tlb::core
