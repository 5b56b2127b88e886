// Compressed sparse row adjacency — the format all triangle-counting
// kernels consume. Neighbor lists are sorted ascending (the merge/binary
// search intersection methods require it; the graph/prepare.hpp builders
// guarantee it).
//
// CompressedCsr is the compact variant: per-row (base, delta-stream)
// layout where the first neighbor is stored raw and the remaining sorted
// neighbors become LEB128 varints of (gap - 1). Social-network rows
// average ~1.5 bytes per neighbor against the raw 4. The CMerge/CStage
// kernels decode it on the fly inside the intersection loop, either from
// DeviceGraph::upload_compressed or from a copy they stage themselves when
// handed a raw image. The engine and the fleet upload raw images only.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.hpp"

namespace tcgpu::graph {

class Csr {
 public:
  Csr() : row_ptr_(1, 0) {}
  Csr(std::vector<EdgeIndex> row_ptr, std::vector<VertexId> col);

  VertexId num_vertices() const {
    return static_cast<VertexId>(row_ptr_.size() - 1);
  }
  EdgeIndex num_edges() const { return row_ptr_.back(); }

  std::span<const VertexId> neighbors(VertexId v) const {
    return {col_.data() + row_ptr_[v], col_.data() + row_ptr_[v + 1]};
  }
  EdgeIndex degree(VertexId v) const { return row_ptr_[v + 1] - row_ptr_[v]; }

  /// Binary search in v's sorted neighbor list.
  bool has_edge(VertexId v, VertexId w) const;

  const std::vector<EdgeIndex>& row_ptr() const { return row_ptr_; }
  const std::vector<VertexId>& col() const { return col_; }

  bool operator==(const Csr&) const = default;

 private:
  std::vector<EdgeIndex> row_ptr_;  // size V+1
  std::vector<VertexId> col_;       // size E
};

/// Appends v as a little-endian LEB128 varint (7 value bits per byte, high
/// bit = continuation). The canonical encoder for CompressedCsr streams and
/// the device kernels' self-staged copies — one definition so host and
/// "device" bytes can never drift.
inline void varint_append(std::vector<std::uint8_t>& out, std::uint32_t v) {
  while (v >= 0x80u) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Delta-compressed adjacency: row v keeps its first neighbor raw in
/// `base()[v]` and encodes each later neighbor as varint(gap - 1) — rows are
/// strictly ascending, so gaps are >= 1 and the -1 buys one bit of density.
/// `offset()[v] .. offset()[v+1]` bounds v's byte stream in `data()`;
/// degrees still come from `row_ptr()` (byte lengths alone can't recover
/// them). Decode is sequential per row, which is exactly the access pattern
/// of the merge intersection family.
class CompressedCsr {
 public:
  CompressedCsr() : row_ptr_(1, 0), offset_(1, 0) {}

  /// Compresses a sorted-row CSR. Throws std::invalid_argument on unsorted
  /// or duplicate-bearing rows, std::length_error if the delta stream
  /// exceeds the device's 32-bit byte offsets.
  static CompressedCsr compress(const Csr& csr);

  /// Exact inverse of compress() — round-trip is pinned by tests.
  Csr decompress() const;

  VertexId num_vertices() const {
    return static_cast<VertexId>(row_ptr_.size() - 1);
  }
  EdgeIndex num_edges() const { return row_ptr_.back(); }
  EdgeIndex degree(VertexId v) const { return row_ptr_[v + 1] - row_ptr_[v]; }

  const std::vector<EdgeIndex>& row_ptr() const { return row_ptr_; }
  const std::vector<VertexId>& base() const { return base_; }
  const std::vector<std::uint32_t>& offset() const { return offset_; }
  const std::vector<std::uint8_t>& data() const { return data_; }

  /// Bytes of the adjacency payload (base + offsets + delta stream); the
  /// raw-CSR equivalent is col: 4 bytes per edge.
  std::size_t adjacency_bytes() const {
    return base_.size() * sizeof(VertexId) +
           offset_.size() * sizeof(std::uint32_t) + data_.size();
  }

  bool operator==(const CompressedCsr&) const = default;

 private:
  std::vector<EdgeIndex> row_ptr_;     // size V+1 (degrees, as in Csr)
  std::vector<VertexId> base_;         // size V; first neighbor, 0 if empty
  std::vector<std::uint32_t> offset_;  // size V+1; byte offsets into data_
  std::vector<std::uint8_t> data_;     // varint(gap-1) stream
};

}  // namespace tcgpu::graph
