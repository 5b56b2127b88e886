// Edge-list (COO) graph container — the interchange format every loader and
// generator produces and graph::clean_edges (graph/prepare.hpp) consumes.
#pragma once

#include "graph/types.hpp"

namespace tcgpu::graph {

/// An edge list over vertices [0, num_vertices). May contain self-loops,
/// duplicates and isolated vertices until cleaned by clean_edges.
struct Coo {
  VertexId num_vertices = 0;
  std::vector<Edge> edges;

  std::size_t num_edges() const { return edges.size(); }
};

}  // namespace tcgpu::graph
