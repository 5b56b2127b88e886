#include "graph/cpu_reference.hpp"

#include <gtest/gtest.h>

#include "gen/er.hpp"
#include "gen/rmat.hpp"
#include "graph/orientation.hpp"
#include "graph/prepare.hpp"

namespace tcgpu::graph {
namespace {

std::uint64_t forward_count_of(const Coo& raw) {
  const Csr und = build_undirected_csr(clean_edges(raw));
  return count_triangles_forward(orient(und, OrientationPolicy::kByDegree).dag);
}

Coo complete_graph(VertexId n) {
  Coo g;
  g.num_vertices = n;
  for (VertexId i = 0; i < n; ++i) {
    for (VertexId j = i + 1; j < n; ++j) g.edges.push_back({i, j});
  }
  return g;
}

TEST(CpuReference, CompleteGraphHasNChoose3) {
  EXPECT_EQ(forward_count_of(complete_graph(4)), 4u);
  EXPECT_EQ(forward_count_of(complete_graph(10)), 120u);
  EXPECT_EQ(forward_count_of(complete_graph(25)), 2300u);
}

TEST(CpuReference, TreesAndCyclesHaveNone) {
  Coo path;
  path.num_vertices = 10;
  for (VertexId i = 0; i + 1 < 10; ++i) path.edges.push_back({i, i + 1});
  EXPECT_EQ(forward_count_of(path), 0u);

  Coo cycle = path;
  cycle.edges.push_back({9, 0});
  EXPECT_EQ(forward_count_of(cycle), 0u);

  Coo c3;
  c3.num_vertices = 3;
  c3.edges = {{0, 1}, {1, 2}, {2, 0}};
  EXPECT_EQ(forward_count_of(c3), 1u);
}

TEST(CpuReference, BipartiteGraphHasNone) {
  Coo g;
  g.num_vertices = 12;
  for (VertexId a = 0; a < 6; ++a) {
    for (VertexId b = 6; b < 12; ++b) g.edges.push_back({a, b});
  }
  EXPECT_EQ(forward_count_of(g), 0u);
}

TEST(CpuReference, PetersenGraphHasNoTriangles) {
  // Classic: 3-regular, girth 5.
  Coo g;
  g.num_vertices = 10;
  for (VertexId i = 0; i < 5; ++i) {
    g.edges.push_back({i, (i + 1) % 5});          // outer cycle
    g.edges.push_back({i, i + 5});                // spokes
    g.edges.push_back({i + 5, (i + 2) % 5 + 5});  // inner pentagram
  }
  EXPECT_EQ(forward_count_of(g), 0u);
}

TEST(CpuReference, TwoMethodsAgreeOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    gen::RmatParams p;
    p.scale = 11;
    p.edges = 8000;
    const Csr und = build_undirected_csr(clean_edges(gen::generate_rmat(p, seed)));
    const auto dag = orient(und, OrientationPolicy::kByDegree).dag;
    EXPECT_EQ(count_triangles_forward(dag), count_triangles_stamped(dag))
        << "seed " << seed;
  }
}

TEST(CpuReference, EmptyGraphCountsZero) {
  EXPECT_EQ(count_triangles_forward(Csr{}), 0u);
  EXPECT_EQ(count_triangles_stamped(Csr{}), 0u);
}

TEST(SortedIntersectionSize, Basics) {
  const std::vector<VertexId> a = {1, 3, 5, 7};
  const std::vector<VertexId> b = {2, 3, 4, 7, 9};
  EXPECT_EQ(sorted_intersection_size(a, b), 2u);
  EXPECT_EQ(sorted_intersection_size(a, {}), 0u);
  EXPECT_EQ(sorted_intersection_size(a, a), 4u);
}

TEST(CpuReference, AddingEdgeAddsItsIntersectionSize) {
  // Property: inserting edge (u,v) into a graph adds exactly
  // |N(u) ∩ N(v)| triangles (degree-orientation recomputed each time).
  gen::RmatParams p;
  p.scale = 9;
  p.edges = 1500;
  Coo coo = clean_edges(gen::generate_rmat(p, 3));
  const Csr und = build_undirected_csr(coo);
  // Find a non-edge with common neighbors.
  for (VertexId u = 0; u < und.num_vertices(); ++u) {
    for (VertexId v = u + 1; v < und.num_vertices(); ++v) {
      if (und.has_edge(u, v)) continue;
      const auto common =
          sorted_intersection_size(und.neighbors(u), und.neighbors(v));
      if (common == 0) continue;
      const std::uint64_t before = forward_count_of(coo);
      Coo bigger = coo;
      bigger.edges.push_back({u, v});
      EXPECT_EQ(forward_count_of(bigger), before + common);
      return;  // one instance suffices
    }
  }
  FAIL() << "no candidate non-edge found";
}

}  // namespace
}  // namespace tcgpu::graph
