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

  // --- oriented-DAG quantities --------------------------------------------
  // These drive the paper's three governing factors: sum_out_degree_sq is
  // the total-work driver (candidate wedges per anchor scale with d_out²),
  // out_degree_skew the warp-imbalance driver, and both feed serve::Selector.
  EdgeIndex max_out_degree = 0;
  EdgeIndex p99_out_degree = 0;
  double avg_out_degree = 0.0;
  std::uint64_t sum_out_degree_sq = 0;  ///< Σ_u d_out(u)²
  double out_degree_skew = 0.0;         ///< max_out / avg_out (1 when regular)
};

/// hist[d] = number of entries of `degrees` equal to d (size max + 1, so
/// {0} for an empty input).
std::vector<std::uint64_t> histogram_of(const std::vector<EdgeIndex>& degrees);

/// Every GraphStats field of a graph with `num_vertices` vertices and
/// `num_edges` undirected edges, from its degree histogram and the
/// out-degree histogram of its oriented DAG (one out-edge per undirected
/// edge). Percentiles read the exact element a sort-then-index
/// implementation would. graph::prepare_dag and stream::DynamicGraph both
/// build their stats here, so a snapshot and a fresh prepare of the same
/// DAG agree bit for bit (serve::Selector scores graphs from these fields —
/// any drift could silently move a pick).
GraphStats stats_from_histograms(VertexId num_vertices, std::uint64_t num_edges,
                                 const std::vector<std::uint64_t>& degree_hist,
                                 const std::vector<std::uint64_t>& out_degree_hist);

}  // namespace tcgpu::graph
