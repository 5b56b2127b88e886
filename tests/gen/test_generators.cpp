#include <gtest/gtest.h>

#include "gen/chung_lu.hpp"
#include "gen/er.hpp"
#include "gen/rmat.hpp"
#include "gen/road.hpp"
#include "gen/star_burst.hpp"
#include "graph/prepare.hpp"
#include "graph/stats.hpp"

namespace tcgpu::gen {
namespace {

using graph::clean_edges;
using graph::prepare_dag;

TEST(Er, ProducesExactlyRequestedDistinctEdges) {
  const auto g = generate_er(1000, 5000, 1);
  EXPECT_EQ(g.edges.size(), 5000u);
  const auto clean = clean_edges(g);
  EXPECT_EQ(clean.edges.size(), 5000u);  // already distinct and loop-free
}

TEST(Er, IsSeedDeterministic) {
  const auto a = generate_er(500, 2000, 9);
  const auto b = generate_er(500, 2000, 9);
  const auto c = generate_er(500, 2000, 10);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_NE(a.edges, c.edges);
}

TEST(Er, RejectsImpossibleRequests) {
  EXPECT_THROW(generate_er(1, 1, 0), std::invalid_argument);
  EXPECT_THROW(generate_er(10, 100, 0), std::invalid_argument);  // > C(10,2)
}

TEST(Er, CanSaturateTheCompleteGraph) {
  const auto g = generate_er(10, 45, 3);
  EXPECT_EQ(g.edges.size(), 45u);
}

TEST(Rmat, HitsEdgeTargetAndIdRange) {
  RmatParams p;
  p.scale = 12;
  p.edges = 30000;
  const auto g = generate_rmat(p, 4);
  EXPECT_EQ(g.edges.size(), 30000u);
  for (const auto& [u, v] : g.edges) {
    EXPECT_LT(u, 1u << 12);
    EXPECT_LT(v, 1u << 12);
    EXPECT_NE(u, v);
  }
}

TEST(Rmat, SkewedParametersProduceSkewedDegrees) {
  RmatParams p;
  p.scale = 12;
  p.edges = 30000;
  const auto stats = prepare_dag(generate_rmat(p, 4)).stats;
  // A power-law graph's max degree dwarfs its average.
  EXPECT_GT(stats.max_degree, stats.avg_degree * 10);
}

TEST(Rmat, FoldPinsVertexCount) {
  RmatParams p;
  p.scale = 13;
  p.edges = 30000;
  p.fold_to = 3000;
  const auto g = generate_rmat(p, 4);
  for (const auto& [u, v] : g.edges) {
    EXPECT_LT(u, 3000u);
    EXPECT_LT(v, 3000u);
  }
  const auto stats = prepare_dag(graph::Coo(g)).stats;
  // Heavy skew still leaves a small share of folded ids untouched; the point
  // is that V lands near the target instead of at the 2^scale id-space size.
  EXPECT_NEAR(static_cast<double>(stats.num_vertices), 3000.0, 450.0);
}

TEST(Rmat, RejectsBadProbabilities) {
  RmatParams p;
  p.a = 0.5;
  p.b = 0.3;
  p.c = 0.2;  // sums to 1.0
  EXPECT_THROW(generate_rmat(p, 1), std::invalid_argument);
}

TEST(ChungLu, HitsEdgeTarget) {
  ChungLuParams p;
  p.vertices = 5000;
  p.edges = 20000;
  const auto g = generate_chung_lu(p, 8);
  EXPECT_EQ(g.edges.size(), 20000u);
}

TEST(ChungLu, SteeperExponentMeansMilderTail) {
  ChungLuParams mild;
  mild.vertices = 8000;
  mild.edges = 30000;
  mild.exponent = 2.2;
  ChungLuParams steep = mild;
  steep.exponent = 3.5;
  const auto s_mild = prepare_dag(generate_chung_lu(mild, 5)).stats;
  const auto s_steep = prepare_dag(generate_chung_lu(steep, 5)).stats;
  EXPECT_GT(s_mild.max_degree, s_steep.max_degree);
}

TEST(Road, AvgDegreeNearLatticeTarget) {
  RoadParams p;
  p.vertices = 10000;
  const auto stats = prepare_dag(generate_road(p, 6)).stats;
  EXPECT_GT(stats.avg_degree, 2.0);
  EXPECT_LT(stats.avg_degree, 4.5);
  EXPECT_LE(stats.max_degree, 8u);  // lattices have no hubs
}

TEST(StarBurst, ProducesHubs) {
  StarBurstParams p;
  p.vertices = 20000;
  p.edges = 80000;
  const auto stats = prepare_dag(generate_star_burst(p, 7)).stats;
  EXPECT_GT(stats.max_degree, 1000u);   // hub
  EXPECT_LE(stats.median_degree, 6u);   // most vertices are leaves
}

TEST(Generators, AllAreSeedDeterministic) {
  RmatParams r;
  r.scale = 10;
  r.edges = 5000;
  EXPECT_EQ(generate_rmat(r, 2).edges, generate_rmat(r, 2).edges);
  ChungLuParams c;
  c.vertices = 2000;
  c.edges = 5000;
  EXPECT_EQ(generate_chung_lu(c, 2).edges, generate_chung_lu(c, 2).edges);
  RoadParams rd;
  rd.vertices = 2000;
  EXPECT_EQ(generate_road(rd, 2).edges, generate_road(rd, 2).edges);
  StarBurstParams s;
  s.vertices = 2000;
  s.edges = 5000;
  EXPECT_EQ(generate_star_burst(s, 2).edges, generate_star_burst(s, 2).edges);
}

}  // namespace
}  // namespace tcgpu::gen
