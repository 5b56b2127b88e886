#include <gtest/gtest.h>

#include "gen/rmat.hpp"
#include "graph/cpu_reference.hpp"
#include "graph/orientation.hpp"
#include "graph/prepare.hpp"

namespace tcgpu::graph {
namespace {

Csr from_edges(VertexId n, std::vector<Edge> edges) {
  Coo coo;
  coo.num_vertices = n;
  coo.edges = std::move(edges);
  return build_undirected_csr(clean_edges(coo));
}

TEST(CoreNumbers, CompleteGraphIsUniform) {
  std::vector<Edge> edges;
  for (VertexId i = 0; i < 7; ++i) {
    for (VertexId j = i + 1; j < 7; ++j) edges.push_back({i, j});
  }
  const auto core = core_numbers(from_edges(7, edges));
  for (const auto c : core) EXPECT_EQ(c, 6u);
}

TEST(CoreNumbers, PathIsOneCore) {
  std::vector<Edge> edges;
  for (VertexId i = 0; i + 1 < 10; ++i) edges.push_back({i, i + 1});
  const auto core = core_numbers(from_edges(10, edges));
  for (const auto c : core) EXPECT_EQ(c, 1u);
}

TEST(CoreNumbers, CycleIsTwoCore) {
  std::vector<Edge> edges;
  for (VertexId i = 0; i < 8; ++i) edges.push_back({i, (i + 1) % 8});
  const auto core = core_numbers(from_edges(8, edges));
  for (const auto c : core) EXPECT_EQ(c, 2u);
}

TEST(CoreNumbers, TriangleWithTailSeparates) {
  // Triangle 0-1-2 plus tail 2-3-4: triangle is 2-core, tail is 1-core.
  const auto g = from_edges(5, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}});
  const auto core = core_numbers(g);
  // clean_edges compacts ids but this graph has no isolated vertices, and
  // ids are preserved.
  EXPECT_EQ(core[0], 2u);
  EXPECT_EQ(core[1], 2u);
  EXPECT_EQ(core[2], 2u);
  EXPECT_EQ(core[3], 1u);
  EXPECT_EQ(core[4], 1u);
}

TEST(CoreNumbers, SatisfiesCoreDefinitionOnRandomGraph) {
  // Every vertex of the k-core induced subgraph has >= k neighbors in it.
  gen::RmatParams p;
  p.scale = 10;
  p.edges = 6000;
  const Csr g = build_undirected_csr(clean_edges(gen::generate_rmat(p, 77)));
  const auto core = core_numbers(g);
  EdgeIndex kmax = 0;
  for (const auto c : core) kmax = std::max(kmax, c);
  ASSERT_GT(kmax, 1u);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EdgeIndex inside = 0;
    for (const VertexId w : g.neighbors(v)) inside += core[w] >= core[v];
    EXPECT_GE(inside, core[v]) << "vertex " << v;
  }
}

TEST(CoreNumbers, CoreIsAtMostDegree) {
  gen::RmatParams p;
  p.scale = 9;
  p.edges = 3000;
  const Csr g = build_undirected_csr(clean_edges(gen::generate_rmat(p, 13)));
  const auto core = core_numbers(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) EXPECT_LE(core[v], g.degree(v));
}

TEST(ParallelForward, AgreesWithSerialReference) {
  gen::RmatParams p;
  p.scale = 11;
  p.edges = 12000;
  const Csr und = build_undirected_csr(clean_edges(gen::generate_rmat(p, 21)));
  const auto dag = orient(und, OrientationPolicy::kByDegree).dag;
  EXPECT_EQ(count_triangles_forward_parallel(dag), count_triangles_forward(dag));
}

TEST(ParallelForward, EmptyGraph) {
  EXPECT_EQ(count_triangles_forward_parallel(Csr{}), 0u);
}

}  // namespace
}  // namespace tcgpu::graph
