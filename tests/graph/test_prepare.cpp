// Equivalence gates for the parallel prepare pipeline (graph/prepare.hpp):
// every stage against an independent std::set / vector-of-vectors /
// std::stable_sort oracle, under varying OMP thread counts. These are the
// invariants the fig11/12/13 byte-identity guarantee rests on.
#include "graph/prepare.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <set>
#include <vector>

#include "gen/er.hpp"
#include "gen/rmat.hpp"
#include "graph/cpu_reference.hpp"
#include "support/graph_oracle.hpp"

namespace tcgpu::graph {
namespace {

/// Independent clean oracle: std::set dedup, then monotone id compaction.
Coo oracle_clean(const Coo& raw) {
  std::set<Edge> dedup;
  for (const auto& [u, v] : raw.edges) {
    if (u == v) continue;
    dedup.insert({std::min(u, v), std::max(u, v)});
  }
  std::vector<VertexId> remap(raw.num_vertices, kInvalidVertex);
  for (const auto& [u, v] : dedup) remap[u] = remap[v] = 0;
  VertexId next = 0;
  for (VertexId v = 0; v < raw.num_vertices; ++v) {
    if (remap[v] != kInvalidVertex) remap[v] = next++;
  }
  Coo out;
  out.num_vertices = next;
  for (const auto& [u, v] : dedup) out.edges.emplace_back(remap[u], remap[v]);
  return out;
}

/// Independent CSR oracle: vector-of-vectors adjacency, rows sorted.
Csr oracle_undirected_csr(const Coo& clean) {
  std::vector<std::vector<VertexId>> adj(clean.num_vertices);
  for (const auto& [u, v] : clean.edges) {
    adj[u].push_back(v);
    adj[v].push_back(u);
  }
  std::vector<EdgeIndex> row_ptr(clean.num_vertices + 1, 0);
  std::vector<VertexId> col;
  for (VertexId v = 0; v < clean.num_vertices; ++v) {
    std::sort(adj[v].begin(), adj[v].end());
    col.insert(col.end(), adj[v].begin(), adj[v].end());
    row_ptr[v + 1] = static_cast<EdgeIndex>(col.size());
  }
  return Csr(std::move(row_ptr), std::move(col));
}

/// Messy raw inputs: self-loops, duplicates, reversals, isolated vertices.
std::vector<Coo> messy_graphs() {
  std::vector<Coo> graphs;
  {
    Coo g;
    g.num_vertices = 8;  // 5 and 6 stay isolated
    g.edges = {{0, 1}, {1, 0}, {0, 0}, {2, 1}, {1, 2}, {2, 1},
               {3, 4}, {7, 3}, {4, 3}, {7, 7}, {0, 2}};
    graphs.push_back(std::move(g));
  }
  graphs.push_back(gen::generate_er(300, 2'000, 7));
  gen::RmatParams rmat;
  rmat.scale = 10;
  rmat.edges = 6'000;
  graphs.push_back(gen::generate_rmat(rmat, 11));
  graphs.push_back(Coo{});  // empty
  return graphs;
}

TEST(PreparePipeline, CleanMatchesSetOracle) {
  for (const Coo& raw : messy_graphs()) {
    const Coo got = clean_edges(raw);
    const Coo want = oracle_clean(raw);
    EXPECT_EQ(got.num_vertices, want.num_vertices);
    EXPECT_EQ(got.edges, want.edges);
  }
}

TEST(PreparePipeline, UndirectedCsrMatchesOracle) {
  for (const Coo& raw : messy_graphs()) {
    const Coo clean = oracle_clean(raw);
    EXPECT_EQ(build_undirected_csr(clean), oracle_undirected_csr(clean));
  }
}

TEST(PreparePipeline, PrepareDagMatchesSortOracle) {
  for (const Coo& raw : messy_graphs()) {
    Coo copy = raw;
    const PreparedDag got = prepare_dag(std::move(copy));
    const Coo clean = oracle_clean(raw);
    const Csr want = oracle::degree_oriented_dag(clean.num_vertices, clean.edges);
    EXPECT_EQ(got.dag, want);
    oracle::expect_stats_eq(got.stats, oracle::stats_of_dag(want));
  }
}

TEST(PreparePipeline, OutputIsThreadCountInvariant) {
  gen::RmatParams rmat;
  rmat.scale = 11;
  rmat.edges = 12'000;
  const Coo raw = gen::generate_rmat(rmat, 3);
  const int saved = omp_get_max_threads();
  std::vector<PreparedDag> runs;
  for (const int threads : {1, 2, 4}) {
    omp_set_num_threads(threads);
    Coo copy = raw;
    runs.push_back(prepare_dag(std::move(copy)));
  }
  omp_set_num_threads(saved);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].dag, runs[0].dag);
    oracle::expect_stats_eq(runs[i].stats, runs[0].stats);
  }
}

TEST(PreparePipeline, RejectsOutOfRangeIds) {
  Coo raw;
  raw.num_vertices = 2;
  raw.edges = {{0, 5}};
  EXPECT_THROW(clean_edges(std::move(raw)), std::invalid_argument);
}

Coo sample_rmat() {
  gen::RmatParams p;
  p.scale = 10;
  p.edges = 4000;
  return gen::generate_rmat(p, 99);
}

TEST(Orientation, EveryEdgePointsLowToHigh) {
  const Csr dag = prepare_dag(sample_rmat()).dag;
  for (VertexId u = 0; u < dag.num_vertices(); ++u) {
    for (const VertexId v : dag.neighbors(u)) EXPECT_LT(u, v);
  }
}

TEST(Orientation, KeepsExactlyHalfTheDirectedEdges) {
  const Csr und = build_undirected_csr(clean_edges(sample_rmat()));
  const Csr dag = prepare_dag(sample_rmat()).dag;
  EXPECT_EQ(dag.num_edges(), und.num_edges() / 2);
  EXPECT_EQ(dag.num_vertices(), und.num_vertices());
}

TEST(Orientation, TriangleCountIsOrientationInvariant) {
  // Cleaned edges are (min, max) pairs, so they already form the
  // id-oriented DAG.
  const Coo clean = clean_edges(sample_rmat());
  const Csr by_id = build_directed_csr(clean.num_vertices, clean.edges);
  EXPECT_EQ(count_triangles_forward(prepare_dag(sample_rmat()).dag),
            count_triangles_forward(by_id));
}

TEST(Orientation, ByDegreeBoundsOutDegreeOnStars) {
  // Star K_{1,100}: center degree 100, leaves degree 1. Degree orientation
  // points every edge leaf -> center, so max out-degree is 1.
  Coo star;
  star.num_vertices = 101;
  for (VertexId leaf = 1; leaf <= 100; ++leaf) star.edges.push_back({0, leaf});
  const PreparedDag prepared = prepare_dag(std::move(star));
  EdgeIndex max_out = 0;
  for (VertexId u = 0; u < prepared.dag.num_vertices(); ++u) {
    max_out = std::max(max_out, prepared.dag.degree(u));
  }
  EXPECT_EQ(max_out, 1u);
  EXPECT_EQ(prepared.stats.max_out_degree, 1u);
}

TEST(SymmetrizeDag, RebuildsTheUndirectedAdjacency) {
  const Coo raw = gen::generate_er(250, 1'500, 9);
  Coo copy = raw;
  const PreparedDag prepared = prepare_dag(std::move(copy));
  const Csr sym = symmetrize_dag(prepared.dag);

  // The DAG is id-oriented after relabeling, so symmetrizing it must equal
  // the undirected CSR of its own edge list.
  Coo dag_edges;
  dag_edges.num_vertices = prepared.dag.num_vertices();
  for (VertexId u = 0; u < prepared.dag.num_vertices(); ++u) {
    for (const VertexId v : prepared.dag.neighbors(u)) {
      dag_edges.edges.emplace_back(u, v);
    }
  }
  EXPECT_EQ(sym, oracle_undirected_csr(dag_edges));
}

TEST(SymmetrizeDag, RejectsUnorientedInput) {
  // 1 -> 0 violates the u < v contract.
  const Csr bad = build_directed_csr(2, {{1, 0}});
  EXPECT_THROW(symmetrize_dag(bad), std::invalid_argument);
}

}  // namespace
}  // namespace tcgpu::graph
