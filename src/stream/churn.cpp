#include "stream/churn.hpp"

#include <algorithm>

namespace tcgpu::stream {

std::vector<EdgeOp> ChurnGenerator::next_batch(const Snapshot& snap,
                                               std::size_t n) {
  std::vector<EdgeOp> ops;
  ops.reserve(n);
  const graph::VertexId V = snap.num_vertices();
  if (V < 2) return ops;

  for (std::size_t i = 0; i < n; ++i) {
    const bool want_insert = snap.num_edges() == 0 || rng_.chance(0.5);
    if (!want_insert) {
      // Delete: a uniform vertex with neighbors, then a uniform neighbor.
      // Bounded retries keep the generator total even on sparse tails.
      bool emitted = false;
      for (int attempt = 0; attempt < 32 && !emitted; ++attempt) {
        const auto u = static_cast<graph::VertexId>(rng_.uniform(V));
        const auto row = snap.neighbors(u);
        if (row.empty()) continue;
        ops.push_back({u, row[rng_.uniform(row.size())], /*insert=*/false});
        emitted = true;
      }
      if (emitted) continue;
      // All sampled vertices isolated: fall through to an insert so the
      // batch keeps its requested size.
    }
    EdgeOp op;
    op.insert = true;
    for (int attempt = 0; attempt < 8; ++attempt) {
      op.u = static_cast<graph::VertexId>(rng_.uniform(V));
      op.v = static_cast<graph::VertexId>(rng_.uniform(V));
      if (op.u != op.v && !snap.has_edge(op.u, op.v)) break;
    }
    if (op.u == op.v) op.v = (op.u + 1) % V;
    ops.push_back(op);
  }
  return ops;
}

}  // namespace tcgpu::stream
