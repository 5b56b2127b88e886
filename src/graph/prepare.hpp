// Graph cleaning and CSR assembly — the paper's §IV preparation pipeline
// ("removing vertices that are not connected to any edges, eliminating
// self-loop edges, and resolving duplicate edges within the graph"), run
// in parallel for the billion-edge capacity path.
//
// The serial route — std::sort + unique clean → undirected CSR →
// compute_stats → orient → fold_dag_stats — materializes the full
// symmetric CSR just to read degrees and emit oriented edges. At paper
// scale (Com-Friendster, 1.8 B raw edges) that is both the wall-clock and
// the memory ceiling of every cache-miss query. This header is the fused
// replacement:
//
//   * clean_edges — OMP-partitioned LSD radix sort of the canonicalized
//     (min,max)-packed edge keys, parallel merge-dedup, and id
//     compaction. Takes the raw edges by value and releases them once the
//     keys exist, so a caller that moves in keeps the peak working set at
//     two key arrays, not raw + cleaned + pair-doubled copies.
//   * prepare_dag — degree-ordered-directed-graph (DODG) orientation built
//     straight from the cleaned edge list + rank array, *without* ever
//     materializing the undirected CSR (kByCore still needs it for the
//     peeling order and falls back to graph::orient). Stats come from
//     degree histograms (graph/stats.hpp) and are bit-identical to the
//     compute_stats + fold_dag_stats values of the serial route.
//
// Equivalence invariants (tested in tests/graph/test_prepare.cpp and
// pinned end-to-end by the fig11/12/13 byte-identity gate):
//   - radix order of (u << vbits | v) keys == lexicographic pair order, so
//     dedup and the monotone id compaction see the same sequence;
//   - the compaction map is monotone, so canonical (min,max) edges stay
//     canonical after remapping;
//   - counting sort by (degree asc, id asc) == std::stable_sort by degree;
//   - the oriented edge of a cleaned (a,b) is (min(ra,rb), max(ra,rb)), and
//     csr assembly sorts rows, so scatter order never shows.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/coo.hpp"
#include "graph/csr.hpp"
#include "graph/orientation.hpp"
#include "graph/stats.hpp"

namespace tcgpu::graph {

/// Everything the framework needs from one prepare, minus the CPU
/// reference count (the runner layers that on top).
struct PreparedDag {
  Csr dag;                           ///< oriented CSR, u < v for every edge
  std::vector<VertexId> new_to_old;  ///< relabeling map (size = V)
  GraphStats stats;                  ///< undirected + DAG quantities
};

/// Canonicalizes a raw edge list into a simple undirected graph: drops
/// self-loops, merges duplicate/reverse-duplicate edges, removes isolated
/// vertices and compacts vertex ids (order-preserving). Each surviving
/// undirected edge appears exactly once, as (min(u,v), max(u,v)), in
/// lexicographic order. `raw.edges` is released as soon as the packed keys
/// exist: pass an rvalue to free the caller's storage early (peak RSS ~2
/// key arrays), an lvalue to keep it (one copy).
/// Throws std::invalid_argument on out-of-range vertex ids.
Coo clean_edges(Coo raw);

/// The fused pipeline: clean → histogram stats → orient (DODG direct from
/// the edge list for kByDegree/kById/kRandom; undirected-CSR fallback for
/// kByCore) → fold DAG stats. Bit-identical to the serial
/// clean/build/compute/orient/fold composition for every policy.
/// Throws std::length_error if the cleaned edge count exceeds the kernels'
/// 32-bit device indices.
PreparedDag prepare_dag(Coo&& raw, OrientationPolicy policy,
                        std::uint64_t seed = 0);

/// Builds the symmetric (both-direction) CSR of a cleaned edge list
/// (atomic degree count, prefix scatter, per-row sorts). Neighbor lists
/// come out sorted ascending and duplicate-free.
Csr build_undirected_csr(const Coo& clean);

/// Builds a directed CSR containing exactly the edges given (u -> v),
/// neighbor lists sorted ascending. Used for oriented DAGs.
Csr build_directed_csr(VertexId num_vertices, const std::vector<Edge>& edges);

/// Parallel symmetrization of an id-oriented DAG (sorted rows, u < v for
/// every edge): row v of the result is every in-neighbor (all < v)
/// followed by every out-neighbor (all > v), ascending — i.e. the full
/// undirected adjacency with the in/out split recoverable at the first
/// element > v. stream::DynamicGraph seeds its segments from this instead
/// of a bespoke transpose loop. Throws std::invalid_argument if the input
/// is not id-oriented with sorted rows.
Csr symmetrize_dag(const Csr& dag);

}  // namespace tcgpu::graph
