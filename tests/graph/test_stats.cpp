#include "graph/stats.hpp"

#include <gtest/gtest.h>

#include "graph/prepare.hpp"

namespace tcgpu::graph {
namespace {

GraphStats star_plus_edge() {
  // Star center 0 with leaves 1..4, plus edge (1,2).
  Coo coo;
  coo.num_vertices = 5;
  coo.edges = {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}};
  return prepare_dag(std::move(coo)).stats;
}

TEST(Stats, CountsVerticesAndUndirectedEdges) {
  const GraphStats s = star_plus_edge();
  EXPECT_EQ(s.num_vertices, 5u);
  EXPECT_EQ(s.num_undirected_edges, 5u);
}

TEST(Stats, AvgDegreeIsTwoEOverV) {
  const GraphStats s = star_plus_edge();
  EXPECT_DOUBLE_EQ(s.avg_degree, 2.0);
  EXPECT_DOUBLE_EQ(s.avg_out_degree, 1.0);
}

TEST(Stats, MaxAndMedianDegree) {
  const GraphStats s = star_plus_edge();
  EXPECT_EQ(s.max_degree, 4u);  // the hub
  EXPECT_EQ(s.median_degree, 2u);
  // Degree order ranks the hub last and each edge leaves its lower-ranked
  // end: out-degrees in rank order are 1, 1, 2, 1, 0.
  EXPECT_EQ(s.max_out_degree, 2u);
  EXPECT_EQ(s.sum_out_degree_sq, 7u);
}

TEST(Stats, EmptyGraph) {
  const GraphStats s = prepare_dag(Coo{}).stats;
  EXPECT_EQ(s.num_vertices, 0u);
  EXPECT_EQ(s.num_undirected_edges, 0u);
  EXPECT_DOUBLE_EQ(s.avg_degree, 0.0);
}

TEST(DegreeHistogram, SumsToVertexCount) {
  const std::vector<EdgeIndex> degrees = {4, 2, 2, 1, 1};  // star_plus_edge
  const auto hist = histogram_of(degrees);
  std::uint64_t total = 0;
  for (const auto h : hist) total += h;
  EXPECT_EQ(total, degrees.size());
  ASSERT_EQ(hist.size(), 5u);  // max degree 4
  EXPECT_EQ(hist[4], 1u);      // one hub
  EXPECT_EQ(hist[1], 2u);      // leaves 3 and 4
  EXPECT_EQ(histogram_of({}), std::vector<std::uint64_t>{0});
}

}  // namespace
}  // namespace tcgpu::graph
