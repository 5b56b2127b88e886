#include "apps/ktruss.hpp"

#include <gtest/gtest.h>

#include "framework/runner.hpp"
#include "graph/prepare.hpp"
#include "gen/rmat.hpp"

namespace tcgpu::apps {
namespace {

KTrussResult decompose(const graph::Coo& coo) {
  const auto pg = tcgpu::framework::prepare_graph("kt", coo);
  return ktruss_decompose(pg.dag, simt::GpuSpec::v100());
}

graph::Coo complete(graph::VertexId n) {
  graph::Coo g;
  g.num_vertices = n;
  for (graph::VertexId i = 0; i < n; ++i) {
    for (graph::VertexId j = i + 1; j < n; ++j) g.edges.push_back({i, j});
  }
  return g;
}

TEST(KTruss, CompleteGraphIsAnNTruss) {
  const auto r = decompose(complete(6));
  EXPECT_EQ(r.max_k, 6u);
  for (const auto t : r.trussness) EXPECT_EQ(t, 6u);
}

TEST(KTruss, TriangleFreeGraphPeaksAtTwo) {
  graph::Coo path;
  path.num_vertices = 30;
  for (graph::VertexId i = 0; i + 1 < 30; ++i) path.edges.push_back({i, i + 1});
  const auto r = decompose(path);
  EXPECT_EQ(r.max_k, 2u);
  for (const auto t : r.trussness) EXPECT_EQ(t, 2u);
}

TEST(KTruss, SingleTriangleIsAThreeTruss) {
  graph::Coo tri;
  tri.num_vertices = 3;
  tri.edges = {{0, 1}, {1, 2}, {0, 2}};
  const auto r = decompose(tri);
  EXPECT_EQ(r.max_k, 3u);
  for (const auto t : r.trussness) EXPECT_EQ(t, 3u);
}

TEST(KTruss, TriangleWithPendantEdge) {
  graph::Coo g;
  g.num_vertices = 4;
  g.edges = {{0, 1}, {1, 2}, {0, 2}, {2, 3}};
  const auto r = decompose(g);
  EXPECT_EQ(r.max_k, 3u);
  int twos = 0, threes = 0;
  for (const auto t : r.trussness) {
    twos += t == 2;
    threes += t == 3;
  }
  EXPECT_EQ(twos, 1);    // the pendant edge
  EXPECT_EQ(threes, 3);  // the triangle
}

TEST(KTruss, K5PlusWeakTriangleSeparatesLevels) {
  // K5 (a 5-truss) plus a disjoint triangle (a 3-truss).
  graph::Coo g = complete(5);
  g.num_vertices = 8;
  g.edges.push_back({5, 6});
  g.edges.push_back({6, 7});
  g.edges.push_back({5, 7});
  const auto r = decompose(g);
  EXPECT_EQ(r.max_k, 5u);
  int fives = 0, threes = 0;
  for (const auto t : r.trussness) {
    fives += t == 5;
    threes += t == 3;
  }
  EXPECT_EQ(fives, 10);
  EXPECT_EQ(threes, 3);
}

TEST(KTruss, TrussnessIsMonotoneUnderKQuery) {
  gen::RmatParams p;
  p.scale = 9;
  p.edges = 3000;
  const auto pg = tcgpu::framework::prepare_graph("kt", gen::generate_rmat(p, 6));
  const auto r = ktruss_decompose(pg.dag, simt::GpuSpec::v100());
  EXPECT_GE(r.max_k, 3u);  // RMAT graphs have triangles
  std::size_t prev = r.trussness.size() + 1;
  for (std::uint32_t k = 2; k <= r.max_k + 1; ++k) {
    const auto edges = ktruss_edges(r, k);
    EXPECT_LE(edges.size(), prev);
    prev = edges.size();
  }
  EXPECT_EQ(ktruss_edges(r, 2).size(), pg.dag.num_edges());
  EXPECT_TRUE(ktruss_edges(r, r.max_k + 1).empty());
}

TEST(KTruss, KTrussEdgesSatisfySupportInvariant) {
  // Every edge of the k-truss closes >= k-2 triangles inside the k-truss.
  gen::RmatParams p;
  p.scale = 9;
  p.edges = 2500;
  const auto pg = tcgpu::framework::prepare_graph("kt", gen::generate_rmat(p, 8));
  const auto r = ktruss_decompose(pg.dag, simt::GpuSpec::v100());
  const std::uint32_t k = r.max_k;
  const auto keep = ktruss_edges(r, k);
  ASSERT_FALSE(keep.empty());
  // Rebuild the k-truss subgraph and check supports on the CPU.
  std::vector<graph::Edge> edges;
  {
    std::uint32_t e = 0;
    std::vector<bool> in(pg.dag.num_edges(), false);
    for (const auto id : keep) in[id] = true;
    for (graph::VertexId u = 0; u < pg.dag.num_vertices(); ++u) {
      for (const graph::VertexId v : pg.dag.neighbors(u)) {
        if (in[e]) edges.emplace_back(u, v);
        ++e;
      }
    }
  }
  const auto sub = graph::build_directed_csr(pg.dag.num_vertices(), edges);
  for (graph::VertexId u = 0; u < sub.num_vertices(); ++u) {
    for (const graph::VertexId v : sub.neighbors(u)) {
      // Support of (u,v) inside the subgraph, over all three triangle roles.
      std::uint32_t support = 0;
      for (graph::VertexId w = 0; w < sub.num_vertices(); ++w) {
        const bool uw = w > u ? sub.has_edge(u, w) : sub.has_edge(w, u);
        const bool vw = w > v ? sub.has_edge(v, w) : sub.has_edge(w, v);
        if (w != u && w != v && uw && vw) ++support;
      }
      EXPECT_GE(support + 2, k) << u << "-" << v;
    }
  }
}

}  // namespace
}  // namespace tcgpu::apps
