// k-truss decomposition — the application the paper's introduction uses to
// motivate triangle counting ("finding many applications like k-truss
// analysis"). The k-truss of a graph is the maximal subgraph in which every
// edge closes at least k-2 triangles; an edge's *trussness* is the largest
// k whose k-truss contains it.
//
// The decomposition peels iteratively: for k = 3, 4, ... recompute per-edge
// triangle support on the GPU (tc::count_edge_support, GroupTC-style
// kernel) and drop edges with support < k-2 until stable. The host rebuilds
// the shrinking DAG between rounds; all triangle counting runs on the
// simulated device.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "simt/metrics.hpp"
#include "simt/gpu_spec.hpp"

namespace tcgpu::apps {

struct KTrussResult {
  /// Largest k whose k-truss is non-empty (>= 2; 2 means triangle-free).
  std::uint32_t max_k = 2;
  /// Per input DAG edge (CSR order), the edge's trussness (>= 2).
  std::vector<std::uint32_t> trussness;
  /// Support-kernel launches performed across all peel rounds.
  std::uint64_t peel_rounds = 0;
  /// Accumulated GPU stats over every support kernel.
  simt::KernelStats gpu_stats;
};

/// Decomposes an oriented DAG (u < v per edge; see graph::prepare_dag).
KTrussResult ktruss_decompose(const graph::Csr& dag, const simt::GpuSpec& spec,
                              std::uint32_t chunk = 256);

/// Edges of the k-truss of `dag` (ids into the DAG's CSR edge order).
std::vector<std::uint32_t> ktruss_edges(const KTrussResult& r, std::uint32_t k);

}  // namespace tcgpu::apps
