#include "graph/orientation.hpp"

#include <gtest/gtest.h>

#include "gen/rmat.hpp"
#include "graph/cpu_reference.hpp"
#include "graph/prepare.hpp"

namespace tcgpu::graph {
namespace {

Csr sample_undirected() {
  gen::RmatParams p;
  p.scale = 10;
  p.edges = 4000;
  return build_undirected_csr(clean_edges(gen::generate_rmat(p, 99)));
}

class OrientationPolicies : public ::testing::TestWithParam<OrientationPolicy> {};

TEST_P(OrientationPolicies, EveryEdgePointsLowToHigh) {
  const Csr und = sample_undirected();
  const auto oriented = orient(und, GetParam(), 5);
  const Csr& dag = oriented.dag;
  for (VertexId u = 0; u < dag.num_vertices(); ++u) {
    for (const VertexId v : dag.neighbors(u)) EXPECT_LT(u, v);
  }
}

TEST_P(OrientationPolicies, KeepsExactlyHalfTheDirectedEdges) {
  const Csr und = sample_undirected();
  const auto oriented = orient(und, GetParam(), 5);
  EXPECT_EQ(oriented.dag.num_edges(), und.num_edges() / 2);
  EXPECT_EQ(oriented.dag.num_vertices(), und.num_vertices());
}

TEST_P(OrientationPolicies, RelabelingIsAPermutation) {
  const Csr und = sample_undirected();
  const auto oriented = orient(und, GetParam(), 5);
  std::vector<bool> seen(und.num_vertices(), false);
  for (const VertexId old : oriented.new_to_old) {
    ASSERT_LT(old, und.num_vertices());
    EXPECT_FALSE(seen[old]);
    seen[old] = true;
  }
}

TEST_P(OrientationPolicies, TriangleCountIsOrientationInvariant) {
  const Csr und = sample_undirected();
  const auto by_id = orient(und, OrientationPolicy::kById);
  const auto mine = orient(und, GetParam(), 17);
  EXPECT_EQ(count_triangles_forward(by_id.dag), count_triangles_forward(mine.dag));
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, OrientationPolicies,
                         ::testing::Values(OrientationPolicy::kByDegree,
                                           OrientationPolicy::kById,
                                           OrientationPolicy::kRandom,
                                           OrientationPolicy::kByCore),
                         [](const auto& info) { return to_string(info.param); });

TEST(Orientation, ByDegreeBoundsOutDegreeOnStars) {
  // Star K_{1,100}: center degree 100, leaves degree 1. Degree orientation
  // points every edge leaf -> center, so max out-degree is 1.
  Coo star;
  star.num_vertices = 101;
  for (VertexId leaf = 1; leaf <= 100; ++leaf) star.edges.push_back({0, leaf});
  const Csr und = build_undirected_csr(clean_edges(star));
  const auto oriented = orient(und, OrientationPolicy::kByDegree);
  EdgeIndex max_out = 0;
  for (VertexId u = 0; u < oriented.dag.num_vertices(); ++u) {
    max_out = std::max(max_out, oriented.dag.degree(u));
  }
  EXPECT_EQ(max_out, 1u);
}

TEST(Orientation, RandomPolicyIsSeedDeterministic) {
  const Csr und = sample_undirected();
  const auto a = orient(und, OrientationPolicy::kRandom, 123);
  const auto b = orient(und, OrientationPolicy::kRandom, 123);
  const auto c = orient(und, OrientationPolicy::kRandom, 124);
  EXPECT_EQ(a.dag, b.dag);
  EXPECT_NE(a.dag, c.dag);
}

TEST(Orientation, IdPolicyKeepsIds) {
  const Csr und = sample_undirected();
  const auto oriented = orient(und, OrientationPolicy::kById);
  for (VertexId v = 0; v < und.num_vertices(); ++v) {
    EXPECT_EQ(oriented.new_to_old[v], v);
  }
}

}  // namespace
}  // namespace tcgpu::graph
