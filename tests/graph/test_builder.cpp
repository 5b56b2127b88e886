#include "graph/prepare.hpp"

#include <gtest/gtest.h>

namespace tcgpu::graph {
namespace {

TEST(CleanEdges, DropsSelfLoops) {
  Coo raw;
  raw.num_vertices = 3;
  raw.edges = {{0, 0}, {0, 1}, {2, 2}};
  const Coo clean = clean_edges(raw);
  ASSERT_EQ(clean.edges.size(), 1u);
  EXPECT_EQ(clean.edges[0], Edge(0, 1));
}

TEST(CleanEdges, MergesDuplicatesAndReverseDuplicates) {
  Coo raw;
  raw.num_vertices = 4;
  raw.edges = {{0, 1}, {1, 0}, {0, 1}, {2, 3}};
  const Coo clean = clean_edges(raw);
  EXPECT_EQ(clean.edges.size(), 2u);
}

TEST(CleanEdges, CompactsIsolatedVertices) {
  Coo raw;
  raw.num_vertices = 10;  // only 2, 7 touch edges
  raw.edges = {{7, 2}};
  const Coo clean = clean_edges(raw);
  EXPECT_EQ(clean.num_vertices, 2u);
  EXPECT_EQ(clean.edges[0], Edge(0, 1));
}

TEST(CleanEdges, CanonicalizesLowHigh) {
  Coo raw;
  raw.num_vertices = 5;
  raw.edges = {{4, 1}, {3, 2}};
  const Coo clean = clean_edges(raw);
  for (const auto& [u, v] : clean.edges) EXPECT_LT(u, v);
}

TEST(CleanEdges, RejectsOutOfRangeIds) {
  Coo raw;
  raw.num_vertices = 2;
  raw.edges = {{0, 5}};
  EXPECT_THROW(clean_edges(raw), std::invalid_argument);
}

TEST(CleanEdges, EmptyInputYieldsEmptyGraph) {
  const Coo clean = clean_edges(Coo{});
  EXPECT_EQ(clean.num_vertices, 0u);
  EXPECT_TRUE(clean.edges.empty());
}

TEST(BuildUndirectedCsr, SymmetricSortedAdjacency) {
  Coo clean;
  clean.num_vertices = 4;
  clean.edges = {{0, 2}, {0, 1}, {1, 3}};
  const Csr g = build_undirected_csr(clean);
  EXPECT_EQ(g.num_edges(), 6u);  // both directions
  const auto n0 = g.neighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(n0[1], 2u);
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_TRUE(g.has_edge(3, 1));
  EXPECT_FALSE(g.has_edge(2, 3));
}

TEST(BuildDirectedCsr, KeepsOnlyGivenDirections) {
  const Csr g = build_directed_csr(3, {{0, 1}, {0, 2}, {1, 2}});
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_TRUE(g.neighbors(2).empty());
}

TEST(BuildDirectedCsr, SortsNeighborLists) {
  const Csr g = build_directed_csr(4, {{0, 3}, {0, 1}, {0, 2}});
  const auto n = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(n.begin(), n.end()));
}

}  // namespace
}  // namespace tcgpu::graph
