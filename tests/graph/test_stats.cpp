#include "graph/stats.hpp"

#include <gtest/gtest.h>

#include "graph/prepare.hpp"

namespace tcgpu::graph {
namespace {

Csr star_plus_edge() {
  // Star center 0 with leaves 1..4, plus edge (1,2).
  Coo coo;
  coo.num_vertices = 5;
  coo.edges = {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}};
  return build_undirected_csr(clean_edges(coo));
}

TEST(Stats, CountsVerticesAndUndirectedEdges) {
  const GraphStats s = compute_stats(star_plus_edge());
  EXPECT_EQ(s.num_vertices, 5u);
  EXPECT_EQ(s.num_undirected_edges, 5u);
}

TEST(Stats, AvgDegreeIsTwoEOverV) {
  const GraphStats s = compute_stats(star_plus_edge());
  EXPECT_DOUBLE_EQ(s.avg_degree, 2.0);
}

TEST(Stats, MaxAndMedianDegree) {
  const GraphStats s = compute_stats(star_plus_edge());
  EXPECT_EQ(s.max_degree, 4u);  // the hub
  EXPECT_EQ(s.median_degree, 2u);
}

TEST(Stats, EmptyGraph) {
  const GraphStats s = compute_stats(Csr{});
  EXPECT_EQ(s.num_vertices, 0u);
  EXPECT_EQ(s.num_undirected_edges, 0u);
  EXPECT_DOUBLE_EQ(s.avg_degree, 0.0);
}

TEST(DegreeHistogram, SumsToVertexCount) {
  const Csr g = star_plus_edge();
  const auto hist = degree_histogram(g);
  std::uint64_t total = 0;
  for (const auto h : hist) total += h;
  EXPECT_EQ(total, g.num_vertices());
  ASSERT_EQ(hist.size(), 5u);  // max degree 4
  EXPECT_EQ(hist[4], 1u);      // one hub
  EXPECT_EQ(hist[1], 2u);      // leaves 3 and 4
}

}  // namespace
}  // namespace tcgpu::graph
