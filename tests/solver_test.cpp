// Unit and cross-check tests for max-flow, min-cost flow, simplex and the
// Equation-1 allocation solver.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

#include "graph/expander.hpp"
#include "sim/rng.hpp"
#include "solver/allocation.hpp"
#include "solver/maxflow.hpp"
#include "solver/mincost_flow.hpp"
#include "simplex.hpp"

namespace tlb::solver {
namespace {

TEST(MaxFlow, SimplePath) {
  MaxFlow mf(3);
  mf.add_edge(0, 1, 5.0);
  mf.add_edge(1, 2, 3.0);
  EXPECT_DOUBLE_EQ(mf.solve(0, 2), 3.0);
}

TEST(MaxFlow, ParallelPaths) {
  MaxFlow mf(4);
  mf.add_edge(0, 1, 2.0);
  mf.add_edge(0, 2, 2.0);
  mf.add_edge(1, 3, 2.0);
  mf.add_edge(2, 3, 2.0);
  EXPECT_DOUBLE_EQ(mf.solve(0, 3), 4.0);
}

TEST(MaxFlow, ClassicTextbookGraph) {
  // CLRS-style example with known max flow 23.
  MaxFlow mf(6);
  mf.add_edge(0, 1, 16);
  mf.add_edge(0, 2, 13);
  mf.add_edge(1, 2, 10);
  mf.add_edge(2, 1, 4);
  mf.add_edge(1, 3, 12);
  mf.add_edge(3, 2, 9);
  mf.add_edge(2, 4, 14);
  mf.add_edge(4, 3, 7);
  mf.add_edge(3, 5, 20);
  mf.add_edge(4, 5, 4);
  EXPECT_NEAR(mf.solve(0, 5), 23.0, 1e-9);
}

TEST(MaxFlow, FlowOnEdgeConservation) {
  MaxFlow mf(4);
  const int e1 = mf.add_edge(0, 1, 3.0);
  const int e2 = mf.add_edge(0, 2, 3.0);
  const int e3 = mf.add_edge(1, 3, 2.0);
  const int e4 = mf.add_edge(2, 3, 4.0);
  const double total = mf.solve(0, 3);
  EXPECT_NEAR(mf.flow_on(e1) + mf.flow_on(e2), total, 1e-9);
  EXPECT_NEAR(mf.flow_on(e3) + mf.flow_on(e4), total, 1e-9);
  EXPECT_LE(mf.flow_on(e3), 2.0 + 1e-9);
}

TEST(MaxFlow, FractionalCapacities) {
  MaxFlow mf(3);
  mf.add_edge(0, 1, 0.75);
  mf.add_edge(1, 2, 0.5);
  EXPECT_NEAR(mf.solve(0, 2), 0.5, 1e-12);
}

TEST(MaxFlow, DisconnectedIsZero) {
  MaxFlow mf(4);
  mf.add_edge(0, 1, 5.0);
  mf.add_edge(2, 3, 5.0);
  EXPECT_DOUBLE_EQ(mf.solve(0, 3), 0.0);
}

TEST(MinCostFlow, PrefersCheapPath) {
  MinCostFlow mc(4);
  const int cheap = mc.add_edge(0, 1, 1.0, 0.0);
  mc.add_edge(1, 3, 1.0, 0.0);
  const int costly = mc.add_edge(0, 2, 1.0, 1.0);
  mc.add_edge(2, 3, 1.0, 0.0);
  const auto r = mc.solve(0, 3, 1.0);
  EXPECT_DOUBLE_EQ(r.flow, 1.0);
  EXPECT_DOUBLE_EQ(r.cost, 0.0);
  EXPECT_DOUBLE_EQ(mc.flow_on(cheap), 1.0);
  EXPECT_DOUBLE_EQ(mc.flow_on(costly), 0.0);
}

TEST(MinCostFlow, SpillsToCostlyPathWhenNeeded) {
  MinCostFlow mc(4);
  mc.add_edge(0, 1, 1.0, 0.0);
  mc.add_edge(1, 3, 1.0, 0.0);
  mc.add_edge(0, 2, 5.0, 1.0);
  mc.add_edge(2, 3, 5.0, 0.0);
  const auto r = mc.solve(0, 3, 3.0);
  EXPECT_DOUBLE_EQ(r.flow, 3.0);
  EXPECT_DOUBLE_EQ(r.cost, 2.0);
}

TEST(MinCostFlow, RespectsLimit) {
  MinCostFlow mc(2);
  mc.add_edge(0, 1, 10.0, 0.5);
  const auto r = mc.solve(0, 1, 4.0);
  EXPECT_DOUBLE_EQ(r.flow, 4.0);
  EXPECT_DOUBLE_EQ(r.cost, 2.0);
}

TEST(MinCostFlow, StopsAtMaxFlowBelowLimit) {
  MinCostFlow mc(3);
  mc.add_edge(0, 1, 2.0, 0.0);
  mc.add_edge(1, 2, 2.0, 1.0);
  const auto r = mc.solve(0, 2, 100.0);
  EXPECT_DOUBLE_EQ(r.flow, 2.0);
  EXPECT_DOUBLE_EQ(r.cost, 2.0);
}

TEST(Simplex, SimpleTwoVariableLp) {
  // max 3x + 2y st x + y <= 4, x <= 2  ->  x=2, y=2, obj=10.
  LinearProgram lp;
  lp.a = {{1, 1}, {1, 0}};
  lp.b = {4, 2};
  lp.c = {3, 2};
  const auto sol = solve_lp(lp);
  ASSERT_TRUE(sol.has_value());
  EXPECT_NEAR(sol->objective, 10.0, 1e-9);
  EXPECT_NEAR(sol->x[0], 2.0, 1e-9);
  EXPECT_NEAR(sol->x[1], 2.0, 1e-9);
}

TEST(Simplex, DetectsUnbounded) {
  LinearProgram lp;
  lp.a = {{-1.0, 0.0}};
  lp.b = {1.0};
  lp.c = {1.0, 0.0};
  EXPECT_FALSE(solve_lp(lp).has_value());
}

TEST(Simplex, DegenerateConstraintsTerminates) {
  LinearProgram lp;
  lp.a = {{1, 1}, {1, 1}, {2, 2}};
  lp.b = {2, 2, 4};
  lp.c = {1, 1};
  const auto sol = solve_lp(lp);
  ASSERT_TRUE(sol.has_value());
  EXPECT_NEAR(sol->objective, 2.0, 1e-9);
}

TEST(Simplex, ZeroObjective) {
  LinearProgram lp;
  lp.a = {{1.0}};
  lp.b = {3.0};
  lp.c = {0.0};
  const auto sol = solve_lp(lp);
  ASSERT_TRUE(sol.has_value());
  EXPECT_DOUBLE_EQ(sol->objective, 0.0);
}

// ---- Allocation solver ------------------------------------------------------

AllocationProblem make_problem(const graph::BipartiteGraph& g,
                               std::vector<double> work,
                               std::vector<int> cores) {
  AllocationProblem p;
  p.graph = &g;
  p.work = std::move(work);
  p.node_cores = std::move(cores);
  return p;
}

/// Oracle for solve_allocation via the direct LP formulation (dense
/// simplex): maximise z subject to sum_{e in a} y'_e >= work_a * z - deg(a)
/// and node residual capacities, over the extra cores y'_e per edge.
/// Returns the optimal objective max_a work_a/cores_a = 1/z, or NaN when
/// the LP fails.
double allocation_objective_lp(const AllocationProblem& p) {
  const auto& g = *p.graph;
  if (std::accumulate(p.work.begin(), p.work.end(), 0.0) <= 0.0) return 0.0;

  // Variables: y'_e (extra cores per edge, e indexed globally) then z.
  std::vector<int> edge_node;
  std::vector<std::vector<int>> edge_of(
      static_cast<std::size_t>(g.left_count()));
  for (int a = 0; a < g.left_count(); ++a) {
    for (int n : g.neighbors_of_left(a)) {
      edge_of[static_cast<std::size_t>(a)].push_back(
          static_cast<int>(edge_node.size()));
      edge_node.push_back(n);
    }
  }
  const std::size_t ne = edge_node.size();
  LinearProgram lp;
  lp.c.assign(ne + 1, 0.0);
  lp.c[ne] = 1.0;  // maximise z

  // work_a * z - sum_{e in a} y'_e <= deg(a)
  for (int a = 0; a < g.left_count(); ++a) {
    std::vector<double> row(ne + 1, 0.0);
    row[ne] = p.work[static_cast<std::size_t>(a)];
    for (int e : edge_of[static_cast<std::size_t>(a)]) {
      row[static_cast<std::size_t>(e)] = -1.0;
    }
    lp.a.push_back(std::move(row));
    lp.b.push_back(static_cast<double>(g.left_degree(a)));
  }
  // sum_{e on n} y'_e <= cores_n - workers_n
  for (int n = 0; n < g.right_count(); ++n) {
    std::vector<double> row(ne + 1, 0.0);
    for (std::size_t e = 0; e < ne; ++e) {
      if (edge_node[e] == n) row[e] = 1.0;
    }
    lp.a.push_back(std::move(row));
    lp.b.push_back(static_cast<double>(
        p.node_cores[static_cast<std::size_t>(n)] - g.right_degree(n)));
  }

  const auto sol = solve_lp(lp);
  if (!sol || sol->objective <= 0.0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return 1.0 / sol->objective;  // z = 1/t
}

TEST(Allocation, BalancedLoadNeedsNoOffloading) {
  const auto ex = graph::build_expander({.nodes = 2, .appranks_per_node = 1,
                                         .degree = 2});
  const auto r = solve_allocation(make_problem(ex.graph, {10.0, 10.0},
                                               {48, 48}));
  EXPECT_NEAR(r.offloaded_cores, 0.0, 1e-6);
  // Each apprank: home cores = 47 (helper on the other node owns 1).
  EXPECT_EQ(r.cores[0][0] + r.cores[0][1], 48);
  EXPECT_EQ(r.cores[0][1], 1);
  EXPECT_EQ(r.cores[1][1], 1);
}

TEST(Allocation, FullImbalanceSplitsEvenly) {
  const auto ex = graph::build_expander({.nodes = 2, .appranks_per_node = 1,
                                         .degree = 2});
  const auto r = solve_allocation(make_problem(ex.graph, {20.0, 0.0},
                                               {48, 48}));
  // Apprank 0 should receive nearly everything on both nodes.
  EXPECT_EQ(r.cores[0][0], 47);  // apprank 1's worker keeps >= 1 on node 0?
  // Apprank 0 home node: 48 cores minus apprank1's helper (1) = 47.
  EXPECT_GE(r.cores[0][1], 46);  // node 1: all but apprank 1's own core
  EXPECT_GE(r.cores[1][0] + r.cores[1][1], 2);  // the >=1-per-worker floor
}

TEST(Allocation, ObjectiveMatchesLpReference) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto ex = graph::build_expander(
        {.nodes = 4, .appranks_per_node = 2, .degree = 2, .seed = seed});
    sim::Rng rng(seed * 101);
    std::vector<double> work;
    for (int a = 0; a < ex.graph.left_count(); ++a) {
      work.push_back(rng.uniform(0.0, 30.0));
    }
    const auto p = make_problem(ex.graph, work, {16, 16, 16, 16});
    const auto flow = solve_allocation(p);
    const double lp = allocation_objective_lp(p);
    EXPECT_NEAR(flow.objective, lp, 1e-5 * std::max(1.0, lp))
        << "seed=" << seed;
  }
}

TEST(Allocation, PerNodeSumsAreExactAndFloored) {
  const auto ex = graph::build_expander({.nodes = 4, .appranks_per_node = 2,
                                         .degree = 3, .seed = 7});
  std::vector<double> work = {50, 1, 1, 1, 1, 1, 1, 30};
  const auto r = solve_allocation(make_problem(ex.graph, work,
                                               {48, 48, 48, 48}));
  std::vector<int> node_sum(4, 0);
  for (int a = 0; a < ex.graph.left_count(); ++a) {
    const auto& nb = ex.graph.neighbors_of_left(a);
    for (std::size_t j = 0; j < nb.size(); ++j) {
      EXPECT_GE(r.cores[static_cast<std::size_t>(a)][j], 1);
      node_sum[static_cast<std::size_t>(nb[j])] +=
          r.cores[static_cast<std::size_t>(a)][j];
    }
  }
  for (int n = 0; n < 4; ++n) EXPECT_EQ(node_sum[static_cast<std::size_t>(n)], 48);
}

TEST(Allocation, ZeroWorkGivesZeroObjective) {
  const auto ex = graph::build_expander({.nodes = 2, .appranks_per_node = 1,
                                         .degree = 2});
  const auto r = solve_allocation(make_problem(ex.graph, {0.0, 0.0},
                                               {8, 8}));
  EXPECT_DOUBLE_EQ(r.objective, 0.0);
  EXPECT_EQ(r.cores[0][0] + r.cores[1][0] + r.cores[0][1] + r.cores[1][1], 16);
}

TEST(Allocation, InfeasibleWhenWorkersExceedCores) {
  const auto ex = graph::build_expander({.nodes = 2, .appranks_per_node = 2,
                                         .degree = 2});
  // Each node hosts 2 appranks + 2 helpers = 4 workers but only 3 cores.
  EXPECT_THROW(
      solve_allocation(make_problem(ex.graph, {1, 1, 1, 1}, {3, 3})),
      InfeasibleAllocation);
}

TEST(Allocation, DegreeOneReducesToPerNodeSplit) {
  const auto ex = graph::build_expander({.nodes = 2, .appranks_per_node = 2,
                                         .degree = 1});
  const auto r = solve_allocation(
      make_problem(ex.graph, {30.0, 10.0, 5.0, 5.0}, {16, 16}));
  // Node 0: appranks 0 and 1 in ratio ~3:1.
  EXPECT_EQ(r.cores[0][0] + r.cores[1][0], 16);
  EXPECT_GT(r.cores[0][0], r.cores[1][0]);
  // Objective is constrained by node 0: (30+10)/16 = 2.5.
  EXPECT_NEAR(r.objective, 2.5, 1e-6);
}

TEST(Allocation, ObjectiveImprovesWithDegree) {
  std::vector<double> work = {40, 4, 4, 4};
  double prev = 1e100;
  for (int degree : {1, 2, 4}) {
    const auto ex = graph::build_expander(
        {.nodes = 4, .appranks_per_node = 1, .degree = degree, .seed = 3});
    const auto r =
        solve_allocation(make_problem(ex.graph, work, {12, 12, 12, 12}));
    EXPECT_LE(r.objective, prev + 1e-9) << "degree=" << degree;
    prev = r.objective;
  }
  // Full connectivity: apprank 0 can own at most 48 - 3*4 = 36 cores (the
  // other appranks' workers keep one each), so t* = 40/36.
  EXPECT_NEAR(prev, 40.0 / 36.0, 1e-6);
}

TEST(Allocation, PrefersLocalCoresAtOptimum) {
  // Two equal loads that fit locally: min-cost routing must not offload.
  const auto ex = graph::build_expander({.nodes = 2, .appranks_per_node = 1,
                                         .degree = 2});
  const auto r = solve_allocation(make_problem(ex.graph, {5.0, 5.0},
                                               {16, 16}));
  EXPECT_NEAR(r.offloaded_cores, 0.0, 1e-9);
  EXPECT_NEAR(r.fractional[0][0], 15.0, 1e-6);
  EXPECT_NEAR(r.fractional[0][1], 1.0, 1e-6);
}

}  // namespace
}  // namespace tlb::solver
