#include "graph/stats.hpp"

#include <algorithm>

namespace tcgpu::graph {

namespace {

/// Largest degree with a nonzero histogram count (0 for an empty graph).
EdgeIndex hist_max(const std::vector<std::uint64_t>& hist) {
  for (std::size_t d = hist.size(); d-- > 0;) {
    if (hist[d] != 0) return static_cast<EdgeIndex>(d);
  }
  return 0;
}

/// Value at `idx` of the (conceptual) ascending sorted degree array.
EdgeIndex hist_quantile(const std::vector<std::uint64_t>& hist, std::uint64_t idx) {
  std::uint64_t cum = 0;
  for (std::size_t d = 0; d < hist.size(); ++d) {
    cum += hist[d];
    if (cum > idx) return static_cast<EdgeIndex>(d);
  }
  return hist_max(hist);
}

}  // namespace

std::vector<std::uint64_t> histogram_of(const std::vector<EdgeIndex>& degrees) {
  EdgeIndex max_d = 0;
  for (const EdgeIndex d : degrees) max_d = std::max(max_d, d);
  std::vector<std::uint64_t> hist(static_cast<std::size_t>(max_d) + 1, 0);
  for (const EdgeIndex d : degrees) hist[d]++;
  return hist;
}

GraphStats stats_from_histograms(VertexId num_vertices, std::uint64_t num_edges,
                                 const std::vector<std::uint64_t>& degree_hist,
                                 const std::vector<std::uint64_t>& out_degree_hist) {
  GraphStats s;
  s.num_vertices = num_vertices;
  s.num_undirected_edges = num_edges;
  if (num_vertices == 0) return s;
  const auto n = static_cast<double>(num_vertices);
  const auto p99_idx =
      static_cast<std::uint64_t>(static_cast<double>(num_vertices - 1) * 0.99);

  s.max_degree = hist_max(degree_hist);
  s.median_degree = hist_quantile(degree_hist, num_vertices / 2);
  s.p99_degree = hist_quantile(degree_hist, p99_idx);
  s.avg_degree = static_cast<double>(2 * num_edges) / n;

  s.max_out_degree = hist_max(out_degree_hist);
  s.p99_out_degree = hist_quantile(out_degree_hist, p99_idx);
  s.avg_out_degree = static_cast<double>(num_edges) / n;
  for (std::size_t d = 0; d < out_degree_hist.size(); ++d) {
    s.sum_out_degree_sq += out_degree_hist[d] * d * d;
  }
  s.out_degree_skew = s.avg_out_degree > 0.0
                          ? static_cast<double>(s.max_out_degree) / s.avg_out_degree
                          : 0.0;
  return s;
}

}  // namespace tcgpu::graph
