// Dataset statistics — what Table II reports per graph, plus the degree
// distribution quantities the paper's analysis leans on.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"

namespace tcgpu::graph {

struct GraphStats {
  VertexId num_vertices = 0;
  std::uint64_t num_undirected_edges = 0;
  double avg_degree = 0.0;
  EdgeIndex max_degree = 0;
  EdgeIndex median_degree = 0;
  EdgeIndex p99_degree = 0;

  // --- oriented-DAG quantities (filled by fold_dag_stats) -----------------
  // These drive the paper's three governing factors: sum_out_degree_sq is
  // the total-work driver (candidate wedges per anchor scale with d_out²),
  // out_degree_skew the warp-imbalance driver, and both feed serve::Selector.
  EdgeIndex max_out_degree = 0;
  EdgeIndex p99_out_degree = 0;
  double avg_out_degree = 0.0;
  std::uint64_t sum_out_degree_sq = 0;  ///< Σ_u d_out(u)²
  double out_degree_skew = 0.0;         ///< max_out / avg_out (1 when regular)
};

/// Stats of a simple undirected graph (symmetric CSR).
GraphStats compute_stats(const Csr& undirected);

/// compute_stats without materializing a CSR: the same quantities from a
/// degree histogram (hist[d] = vertices of degree d) and the *directed*
/// edge count (2E for a symmetric graph). Percentiles read the exact
/// element a sort-then-index implementation would, so the parallel prepare
/// pipeline produces bit-identical stats (serve::Selector scores graphs
/// from these fields — any drift could silently move a pick).
GraphStats stats_from_degree_histogram(VertexId num_vertices,
                                       std::uint64_t num_directed_edges,
                                       const std::vector<std::uint64_t>& hist);

/// Folds the oriented DAG's out-degree quantities into `s` (the undirected
/// fields are left untouched). The framework runner calls this after
/// orientation so every PreparedGraph carries the work/imbalance drivers.
void fold_dag_stats(const Csr& dag, GraphStats& s);

/// fold_dag_stats from precomputed aggregates (out-degree histogram, DAG
/// edge count, Σ d_out²) — the histogram twin used by graph::prepare.
void fold_dag_stats_from_histogram(VertexId num_vertices,
                                   std::uint64_t num_dag_edges,
                                   std::uint64_t sum_out_degree_sq,
                                   const std::vector<std::uint64_t>& out_hist,
                                   GraphStats& s);

/// Degree histogram: hist[d] = number of vertices with degree d.
std::vector<std::uint64_t> degree_histogram(const Csr& undirected);

}  // namespace tcgpu::graph
