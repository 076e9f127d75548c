// Unit and property tests for bipartite graphs and expander construction.
#include <gtest/gtest.h>

#include <tuple>

#include "graph/bipartite_graph.hpp"
#include "graph/expander.hpp"

namespace tlb::graph {
namespace {

TEST(BipartiteGraph, AddAndQueryEdges) {
  BipartiteGraph g(2, 3);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_FALSE(g.add_edge(0, 1));  // duplicate
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 1));
  EXPECT_EQ(g.edge_count(), 1);
}

TEST(BipartiteGraph, DegreesTrackEdges) {
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  EXPECT_EQ(g.left_degree(0), 2);
  EXPECT_EQ(g.left_degree(1), 1);
  EXPECT_EQ(g.right_degree(0), 2);
  EXPECT_TRUE(g.is_biregular(2, 2) == false);
}

TEST(BipartiteGraph, ConnectivityDetection) {
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0);
  g.add_edge(1, 1);
  EXPECT_FALSE(g.is_connected());
  g.add_edge(0, 1);
  EXPECT_TRUE(g.is_connected());
}

TEST(BipartiteGraph, NeighborhoodSize) {
  BipartiteGraph g(3, 4);
  g.add_edge(0, 0);
  g.add_edge(0, 1);
  g.add_edge(1, 1);
  g.add_edge(2, 3);
  const int subset01[] = {0, 1};
  EXPECT_EQ(g.neighborhood_size(subset01), 2);
  const int all[] = {0, 1, 2};
  EXPECT_EQ(g.neighborhood_size(all), 3);
}

TEST(Expander, DegreeOneIsHomeOnly) {
  const auto r = build_expander({.nodes = 4, .appranks_per_node = 2,
                                 .degree = 1});
  EXPECT_EQ(r.graph.left_count(), 8);
  EXPECT_TRUE(r.graph.is_biregular(1, 2));
  for (int a = 0; a < 8; ++a) {
    EXPECT_EQ(r.graph.neighbors_of_left(a).front(), home_node(a, 2));
  }
}

TEST(Expander, HomeIsAlwaysFirstNeighbour) {
  const auto r = build_expander({.nodes = 16, .appranks_per_node = 2,
                                 .degree = 4, .seed = 3});
  for (int a = 0; a < r.graph.left_count(); ++a) {
    EXPECT_EQ(r.graph.neighbors_of_left(a).front(), home_node(a, 2));
  }
}

TEST(Expander, RejectsImpossibleDegree) {
  EXPECT_THROW(build_expander({.nodes = 2, .appranks_per_node = 1,
                               .degree = 3}),
               std::invalid_argument);
  EXPECT_THROW(build_expander({.nodes = 0, .appranks_per_node = 1,
                               .degree = 1}),
               std::invalid_argument);
}

TEST(Expander, ConnectedForDegreeAtLeastTwo) {
  for (int nodes : {2, 4, 8, 16, 32}) {
    const auto r = build_expander({.nodes = nodes, .appranks_per_node = 1,
                                   .degree = 2, .seed = 1});
    EXPECT_TRUE(r.graph.is_connected()) << "nodes=" << nodes;
  }
}

TEST(Expander, DeterministicForSeed) {
  const auto a = build_expander({.nodes = 16, .appranks_per_node = 2,
                                 .degree = 3, .seed = 9});
  const auto b = build_expander({.nodes = 16, .appranks_per_node = 2,
                                 .degree = 3, .seed = 9});
  EXPECT_EQ(serialize(a.graph), serialize(b.graph));
}

TEST(Expander, ExpansionOfCompleteBipartiteIsMaximal) {
  // K_{4,4}: every subset of <= 2 appranks sees all 4 nodes.
  BipartiteGraph g(4, 4);
  for (int a = 0; a < 4; ++a) {
    for (int n = 0; n < 4; ++n) g.add_edge(a, n);
  }
  EXPECT_DOUBLE_EQ(vertex_expansion(g), 4.0 / 2.0);
}

TEST(Expander, ExpansionOfDisjointPairsIsOne) {
  BipartiteGraph g(4, 4);
  for (int a = 0; a < 4; ++a) g.add_edge(a, a);
  EXPECT_DOUBLE_EQ(vertex_expansion(g), 1.0);
}

TEST(Expander, SampledExpansionUpperBoundsExact) {
  const auto r = build_expander({.nodes = 12, .appranks_per_node = 1,
                                 .degree = 3, .seed = 4});
  const double exact = vertex_expansion(r.graph, /*exact_limit=*/20);
  const double sampled = vertex_expansion(r.graph, /*exact_limit=*/0,
                                          /*samples=*/500, /*seed=*/2);
  EXPECT_GE(sampled, exact - 1e-12);
}

struct BiregularCase {
  int nodes;
  int per_node;
  int degree;
};

class ExpanderBiregular : public ::testing::TestWithParam<BiregularCase> {};

TEST_P(ExpanderBiregular, GeneratesBiregularGraphs) {
  const auto [nodes, per_node, degree] = GetParam();
  const auto r = build_expander({.nodes = nodes,
                                 .appranks_per_node = per_node,
                                 .degree = degree,
                                 .seed = 13});
  EXPECT_TRUE(r.graph.is_biregular(degree, per_node * degree))
      << "nodes=" << nodes << " per_node=" << per_node << " degree=" << degree;
  EXPECT_EQ(r.graph.left_count(), nodes * per_node);
  EXPECT_EQ(r.graph.right_count(), nodes);
  if (degree >= 2) {
    EXPECT_TRUE(r.graph.is_connected());
    // Home edges guarantee |N(A)| >= #distinct homes >= |A| / per_node.
    EXPECT_GE(r.expansion, 1.0 / per_node - 1e-9);
  }
  // No apprank may appear twice on a node and home must be adjacent.
  for (int a = 0; a < r.graph.left_count(); ++a) {
    const auto& nb = r.graph.neighbors_of_left(a);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      for (std::size_t j = i + 1; j < nb.size(); ++j) {
        EXPECT_NE(nb[i], nb[j]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExpanderBiregular,
    ::testing::Values(BiregularCase{2, 1, 2}, BiregularCase{4, 1, 2},
                      BiregularCase{4, 2, 3}, BiregularCase{8, 1, 4},
                      BiregularCase{8, 2, 4}, BiregularCase{16, 1, 3},
                      BiregularCase{16, 2, 4}, BiregularCase{32, 2, 4},
                      BiregularCase{32, 1, 8}, BiregularCase{64, 2, 4},
                      BiregularCase{64, 1, 2}));

TEST(Expander, LargeGraphStillBiregularAndConnected) {
  const auto r = build_expander({.nodes = 64, .appranks_per_node = 2,
                                 .degree = 8, .seed = 17});
  EXPECT_TRUE(r.graph.is_biregular(8, 16));
  EXPECT_TRUE(r.graph.is_connected());
}

}  // namespace
}  // namespace tlb::graph
