// Equivalence gates for the parallel prepare pipeline (graph/prepare.hpp):
// every stage against an independent std::set / vector-of-vectors oracle,
// under varying OMP thread counts and all four orientation policies. These
// are the invariants the fig11/12/13 byte-identity guarantee rests on.
#include "graph/prepare.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <set>
#include <vector>

#include "gen/er.hpp"
#include "gen/rmat.hpp"
#include "graph/orientation.hpp"

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

/// The legacy composition the fused pipeline replaced, built from oracle
/// parts plus the unchanged orient/stats modules.
PreparedDag oracle_prepare(const Coo& raw, OrientationPolicy policy,
                           std::uint64_t seed = 0) {
  const Coo clean = oracle_clean(raw);
  const Csr undirected = oracle_undirected_csr(clean);
  PreparedDag out;
  out.stats = compute_stats(undirected);
  auto oriented = orient(undirected, policy, seed);
  out.dag = std::move(oriented.dag);
  out.new_to_old = std::move(oriented.new_to_old);
  fold_dag_stats(out.dag, out.stats);
  return out;
}

void expect_stats_eq(const GraphStats& got, const GraphStats& want) {
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

TEST(PreparePipeline, PrepareDagMatchesLegacyCompositionAllPolicies) {
  for (const auto policy :
       {OrientationPolicy::kByDegree, OrientationPolicy::kById,
        OrientationPolicy::kByCore, OrientationPolicy::kRandom}) {
    for (const Coo& raw : messy_graphs()) {
      Coo copy = raw;
      const PreparedDag got = prepare_dag(std::move(copy), policy, 5);
      const PreparedDag want = oracle_prepare(raw, policy, 5);
      EXPECT_EQ(got.dag, want.dag);
      EXPECT_EQ(got.new_to_old, want.new_to_old);
      expect_stats_eq(got.stats, want.stats);
    }
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
    runs.push_back(prepare_dag(std::move(copy), OrientationPolicy::kByDegree));
  }
  omp_set_num_threads(saved);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].dag, runs[0].dag);
    EXPECT_EQ(runs[i].new_to_old, runs[0].new_to_old);
    expect_stats_eq(runs[i].stats, runs[0].stats);
  }
}

TEST(PreparePipeline, RejectsOutOfRangeIds) {
  Coo raw;
  raw.num_vertices = 2;
  raw.edges = {{0, 5}};
  EXPECT_THROW(clean_edges(std::move(raw)), std::invalid_argument);
}

TEST(SymmetrizeDag, RebuildsTheUndirectedAdjacency) {
  const Coo raw = gen::generate_er(250, 1'500, 9);
  Coo copy = raw;
  const PreparedDag prepared =
      prepare_dag(std::move(copy), OrientationPolicy::kByDegree);
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
