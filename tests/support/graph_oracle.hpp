// Test-local oracles for graph preparation. They share no code with
// src/graph's histogram stats or counting-sort orientation: stats come from
// sorted degree arrays, the degree orientation from std::stable_sort, and
// adjacency from vectors of vectors.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "graph/csr.hpp"
#include "graph/stats.hpp"

namespace tcgpu::oracle {

/// Every GraphStats field of the graph whose oriented DAG (one out-edge per
/// undirected edge) is `dag`, by sort-then-index over explicit degree
/// arrays. A vertex's undirected degree is its in- plus out-degree.
inline graph::GraphStats stats_of_dag(const graph::Csr& dag) {
  using graph::EdgeIndex;
  const graph::VertexId n = dag.num_vertices();
  const std::uint64_t e = dag.num_edges();
  std::vector<EdgeIndex> deg(n, 0), out(n, 0);
  std::uint64_t sum_sq = 0;
  for (graph::VertexId u = 0; u < n; ++u) {
    out[u] = dag.degree(u);
    sum_sq += static_cast<std::uint64_t>(out[u]) * out[u];
    deg[u] += out[u];
    for (const graph::VertexId v : dag.neighbors(u)) ++deg[v];
  }
  graph::GraphStats s;
  s.num_vertices = n;
  s.num_undirected_edges = e;
  if (n == 0) return s;
  std::sort(deg.begin(), deg.end());
  std::sort(out.begin(), out.end());
  const auto p99 = static_cast<std::size_t>(static_cast<double>(n - 1) * 0.99);
  s.max_degree = deg.back();
  s.median_degree = deg[n / 2];
  s.p99_degree = deg[p99];
  s.avg_degree = static_cast<double>(2 * e) / static_cast<double>(n);
  s.max_out_degree = out.back();
  s.p99_out_degree = out[p99];
  s.avg_out_degree = static_cast<double>(e) / static_cast<double>(n);
  s.sum_out_degree_sq = sum_sq;
  s.out_degree_skew =
      s.avg_out_degree > 0.0 ? static_cast<double>(s.max_out_degree) / s.avg_out_degree
                             : 0.0;
  return s;
}

/// Degree orientation of a cleaned edge list (each undirected edge once):
/// vertices ranked by std::stable_sort on degree, each edge kept from the
/// lower rank to the higher, rows sorted.
inline graph::Csr degree_oriented_dag(graph::VertexId n,
                                      const std::vector<graph::Edge>& edges) {
  std::vector<graph::EdgeIndex> deg(n, 0);
  for (const auto& [u, v] : edges) {
    ++deg[u];
    ++deg[v];
  }
  std::vector<graph::VertexId> order(n);  // order[rank] = vertex
  std::iota(order.begin(), order.end(), graph::VertexId{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](graph::VertexId a, graph::VertexId b) { return deg[a] < deg[b]; });
  std::vector<graph::VertexId> rank(n);
  for (graph::VertexId r = 0; r < n; ++r) rank[order[r]] = r;

  std::vector<std::vector<graph::VertexId>> rows(n);
  for (const auto& [u, v] : edges) {
    rows[std::min(rank[u], rank[v])].push_back(std::max(rank[u], rank[v]));
  }
  std::vector<graph::EdgeIndex> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<graph::VertexId> col;
  for (graph::VertexId u = 0; u < n; ++u) {
    std::sort(rows[u].begin(), rows[u].end());
    col.insert(col.end(), rows[u].begin(), rows[u].end());
    row_ptr[u + 1] = static_cast<graph::EdgeIndex>(col.size());
  }
  return graph::Csr(std::move(row_ptr), std::move(col));
}

/// Every field, exactly: the selector scores graphs from these, so any
/// drift could move a pick.
inline void expect_stats_eq(const graph::GraphStats& got,
                            const graph::GraphStats& want) {
  EXPECT_EQ(got.num_vertices, want.num_vertices);
  EXPECT_EQ(got.num_undirected_edges, want.num_undirected_edges);
  EXPECT_EQ(got.avg_degree, want.avg_degree);
  EXPECT_EQ(got.max_degree, want.max_degree);
  EXPECT_EQ(got.median_degree, want.median_degree);
  EXPECT_EQ(got.p99_degree, want.p99_degree);
  EXPECT_EQ(got.max_out_degree, want.max_out_degree);
  EXPECT_EQ(got.p99_out_degree, want.p99_out_degree);
  EXPECT_EQ(got.avg_out_degree, want.avg_out_degree);
  EXPECT_EQ(got.sum_out_degree_sq, want.sum_out_degree_sq);
  EXPECT_EQ(got.out_degree_skew, want.out_degree_skew);
}

}  // namespace tcgpu::oracle
