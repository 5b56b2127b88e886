// DAG orientation (§II-B "Pre-processing").
//
// Every intersection-based counter here runs on an *oriented* graph: each
// undirected edge is kept once, directed from the lower-ranked endpoint to
// the higher-ranked one, and vertices are relabeled so rank == id. This
// yields the "u < v for every edge (u,v)" format GroupTC's first
// optimization assumes, counts every triangle exactly once, and (under
// degree ranking) bounds out-degrees on power-law graphs — the standard
// trick all eight published implementations rely on.
#pragma once

#include <cstdint>

#include "graph/csr.hpp"

namespace tcgpu::graph {

enum class OrientationPolicy {
  kByDegree,  ///< rank by (degree asc, id asc) — the default everywhere
  kById,      ///< keep original id order
  kRandom,    ///< random permutation (seeded)
  kByCore,    ///< rank by (k-core number asc, degree asc) — §II-B's
              ///< "k-coreness" preprocessing; tightest out-degree bound
};

/// Core number of every vertex (standard O(E) bucket peeling), exposed for
/// the k-core orientation and for tests.
std::vector<EdgeIndex> core_numbers(const Csr& undirected);

const char* to_string(OrientationPolicy p);

struct OrientedGraph {
  Csr dag;                            ///< oriented CSR, u < v for every edge
  std::vector<VertexId> new_to_old;   ///< relabeling map (size = V)
};

/// Orients a simple undirected graph (symmetric CSR from
/// build_undirected_csr).
OrientedGraph orient(const Csr& undirected, OrientationPolicy policy,
                     std::uint64_t seed = 0);

}  // namespace tcgpu::graph
