#include "stream/snapshot.hpp"

#include <algorithm>

namespace tcgpu::stream {

namespace {

/// First index of row whose neighbor exceeds v — the start of v's oriented
/// out-suffix (ids are ranks, so "greater id" is the DAG direction).
std::size_t suffix_begin(std::span<const graph::VertexId> row, graph::VertexId v) {
  return static_cast<std::size_t>(
      std::upper_bound(row.begin(), row.end(), v) - row.begin());
}

}  // namespace

std::span<const graph::VertexId> Snapshot::neighbors(graph::VertexId v) const {
  const std::size_t s = v >> kSegmentShift;
  if (s >= segments_.size()) return {};
  const Segment& seg = *segments_[s];
  const std::uint32_t local = v & (kSegmentSize - 1);
  return {seg.adj.data() + seg.off[local], seg.adj.data() + seg.off[local + 1]};
}

graph::EdgeIndex Snapshot::degree(graph::VertexId v) const {
  return static_cast<graph::EdgeIndex>(neighbors(v).size());
}

graph::EdgeIndex Snapshot::out_degree(graph::VertexId v) const {
  const auto row = neighbors(v);
  return static_cast<graph::EdgeIndex>(row.size() - suffix_begin(row, v));
}

bool Snapshot::has_edge(graph::VertexId u, graph::VertexId v) const {
  const auto row = neighbors(u);
  return std::binary_search(row.begin(), row.end(), v);
}

graph::Csr Snapshot::materialize_dag() const {
  std::vector<graph::EdgeIndex> row_ptr(static_cast<std::size_t>(num_vertices_) + 1, 0);
  for (graph::VertexId v = 0; v < num_vertices_; ++v) {
    row_ptr[v + 1] = row_ptr[v] + out_degree(v);
  }
  std::vector<graph::VertexId> col;
  col.reserve(row_ptr.back());
  for (graph::VertexId v = 0; v < num_vertices_; ++v) {
    const auto row = neighbors(v);
    col.insert(col.end(), row.begin() + suffix_begin(row, v), row.end());
  }
  return graph::Csr(std::move(row_ptr), std::move(col));
}

}  // namespace tcgpu::stream
