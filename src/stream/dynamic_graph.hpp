// stream::DynamicGraph — exact incremental triangle maintenance under
// batched edge churn.
//
// Seeded from a prepared oriented DAG (u < v for every edge — the
// framework's relabeled output), it applies batches of inserts/deletes and
// keeps two quantities exact at every version, without ever re-running a
// full counting kernel:
//
//   * the global triangle count — per effective op (u,v), the delta is
//     ±|N(u) ∩ N(v)| over the neighborhoods at that point of the batch;
//     the intersections run on the simulated GPU (delta_kernel.hpp),
//     metered through the tc/intersect/ policy machinery;
//   * GraphStats — degree/out-degree histograms are maintained per op and
//     go through the same graph::stats_from_histograms a fresh prepare
//     calls, so every snapshot carries the stats of its own DAG
//     (serve::Selector re-scores mutated graphs from them).
//
// Every commit publishes a new immutable Snapshot that rebuilds only the
// copy-on-write segments holding an op endpoint and shares the rest with
// its predecessor; readers holding older snapshots are never invalidated.
// All host-side state transitions are sequential — the only parallel work
// is the deterministic delta kernel — so commits are reproducible
// bit-for-bit across OMP thread counts.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "simt/gpu_spec.hpp"
#include "simt/metrics.hpp"
#include "stream/snapshot.hpp"

namespace tcgpu::stream {

/// One requested mutation. Endpoints are in the served (relabeled) id
/// space; order does not matter (edges are undirected).
struct EdgeOp {
  graph::VertexId u = 0;
  graph::VertexId v = 0;
  bool insert = true;
};

struct CommitResult {
  std::uint64_t version = 0;     ///< version after the commit
  bool changed = false;          ///< false when every op was a no-op
  std::int64_t delta_triangles = 0;
  std::uint64_t triangles = 0;   ///< new global count
  std::uint32_t inserted = 0;    ///< effective inserts applied
  std::uint32_t removed = 0;     ///< effective deletes applied
  std::uint32_t skipped = 0;     ///< self-loops, duplicates, absent deletes
  std::uint32_t wedge_jobs = 0;  ///< delta-kernel intersections run
  simt::KernelStats stats;       ///< delta kernel's metered stats
};

class DynamicGraph {
 public:
  struct Config {
    simt::GpuSpec spec = simt::GpuSpec::v100();
    /// Past snapshots retained (besides the head) for snapshot_at().
    std::size_t history = 4;
  };

  /// Seeds version 0 from an oriented DAG (u < v, rows sorted): symmetrizes
  /// the adjacency, counts triangles (graph::count_triangles_forward_parallel)
  /// and assembles GraphStats identical to a fresh prepare.
  explicit DynamicGraph(const graph::Csr& dag) : DynamicGraph(dag, Config{}) {}
  DynamicGraph(const graph::Csr& dag, Config cfg);

  DynamicGraph(const DynamicGraph&) = delete;
  DynamicGraph& operator=(const DynamicGraph&) = delete;

  /// Applies one batch in order and publishes a new snapshot (unless no op
  /// was effective, in which case the version does not move). Thread-safe;
  /// commits serialize.
  CommitResult commit(std::span<const EdgeOp> ops);

  /// The current version's snapshot (immutable; hold it as long as needed).
  std::shared_ptr<const Snapshot> snapshot() const;
  /// A retained past version, or nullptr once it aged out of the history
  /// window (Config::history) — the snapshot lifetime rule callers own.
  std::shared_ptr<const Snapshot> snapshot_at(std::uint64_t version) const;

  std::uint64_t version() const;
  std::uint64_t triangles() const;
  const Config& config() const { return cfg_; }

 private:
  graph::GraphStats make_stats() const;

  Config cfg_;
  mutable std::mutex mu_;
  std::shared_ptr<const Snapshot> head_;
  std::deque<std::shared_ptr<const Snapshot>> history_;  ///< newest at back

  // Incremental stats state (guarded by mu_): per-vertex degrees plus
  // histograms, so per-commit stats assembly is O(max_degree), not a sort.
  std::vector<graph::EdgeIndex> degree_;
  std::vector<graph::EdgeIndex> out_degree_;
  std::vector<std::uint64_t> deg_hist_;
  std::vector<std::uint64_t> out_hist_;
  std::uint64_t num_edges_ = 0;
};

}  // namespace tcgpu::stream
