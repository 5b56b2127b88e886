// stream::Snapshot — one immutable, versioned view of a mutating graph.
//
// A DynamicGraph commit never edits a published snapshot: the adjacency is
// split into fixed-width vertex segments held by shared_ptr, and a commit
// rebuilds only the segments a batch touched while sharing the rest with the
// previous version (copy-on-write). An in-flight query therefore reads a
// consistent graph for as long as it holds the snapshot, no matter how many
// batches commit underneath it.
//
// Layout: per vertex the full sorted *undirected* neighbor list. Because the
// framework's prepared DAGs are relabeled so that u < v for every directed
// edge (rank == id), the oriented out-list of v is exactly the suffix of its
// undirected list where neighbors exceed v — one array serves both the
// wedge-delta kernel (which needs full neighborhoods) and materialize_dag()
// (which the static kernels consume). A snapshot holds only what a reply
// reads: this adjacency, the global triangle count and GraphStats.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/stats.hpp"
#include "graph/types.hpp"

namespace tcgpu::stream {

class Snapshot {
 public:
  /// Copy-on-write granularity: vertices per segment. Small enough that a
  /// batch touching k vertices copies O(k) segments, large enough that the
  /// shared_ptr overhead stays negligible against the adjacency itself.
  static constexpr std::uint32_t kSegmentShift = 8;
  static constexpr std::uint32_t kSegmentSize = 1u << kSegmentShift;

  /// One copy-on-write unit: the adjacency rows of kSegmentSize consecutive
  /// vertex ids (rows of ids at or past num_vertices() are empty).
  struct Segment {
    std::vector<graph::EdgeIndex> off;  ///< kSegmentSize + 1 row offsets
    std::vector<graph::VertexId> adj;   ///< sorted undirected neighbors
  };

  std::uint64_t version() const { return version_; }
  graph::VertexId num_vertices() const { return num_vertices_; }
  /// Undirected edge count == oriented DAG edge count.
  std::uint64_t num_edges() const { return num_edges_; }
  std::uint64_t triangles() const { return triangles_; }
  const graph::GraphStats& stats() const { return stats_; }

  /// Sorted undirected neighbor list of v.
  std::span<const graph::VertexId> neighbors(graph::VertexId v) const;
  graph::EdgeIndex degree(graph::VertexId v) const;
  /// Oriented out-degree: neighbors of v greater than v.
  graph::EdgeIndex out_degree(graph::VertexId v) const;
  bool has_edge(graph::VertexId u, graph::VertexId v) const;

  /// The oriented DAG (u < v, rows sorted) the static kernels consume —
  /// the suffix of every undirected row. This is what the serve layer hands
  /// to the Engine to answer queries at this version.
  graph::Csr materialize_dag() const;

  std::size_t num_segments() const { return segments_.size(); }
  /// Exposed so tests can assert copy-on-write sharing across versions.
  std::shared_ptr<const Segment> segment(std::size_t i) const {
    return segments_[i];
  }

 private:
  friend class DynamicGraph;

  std::uint64_t version_ = 0;
  graph::VertexId num_vertices_ = 0;
  std::uint64_t num_edges_ = 0;
  std::uint64_t triangles_ = 0;
  graph::GraphStats stats_;
  std::vector<std::shared_ptr<const Segment>> segments_;
};

}  // namespace tcgpu::stream
