// Per-edge triangle support — the quantity k-truss decomposition peels on
// (the paper's introduction motivates triangle counting with exactly this:
// "finding many applications like k-truss analysis").
//
// For every DAG edge e, support[e] = number of triangles containing e.
// The kernel reuses GroupTC's edge-chunk scheduling; because the edge list
// is in CSR order, a match found at column index i *is* the edge id of the
// corresponding DAG edge, so each discovered triangle (u,v,w) can credit
// all three of its edges with plain atomics.
//
// This is the repo's one per-edge support computation, on the static path
// (apps/ktruss peels on it); src/stream/ maintains global counts only.
#pragma once

#include "tc/common.hpp"

namespace tcgpu::tc {

struct SupportResult {
  simt::KernelStats stats;
  std::uint64_t triangles = 0;  ///< sum(support) / 3, for validation
};

/// Computes per-edge triangle support into `support` (size == g.num_edges,
/// zeroed by the caller or freshly allocated). Chunked like GroupTC;
/// `block` is the chunk size.
SupportResult count_edge_support(simt::Device& dev, const simt::GpuSpec& spec,
                                 const DeviceGraph& g,
                                 simt::DeviceBuffer<std::uint32_t>& support,
                                 std::uint32_t block = 256);

}  // namespace tcgpu::tc
