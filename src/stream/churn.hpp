// Deterministic edge-churn workload generator for the streaming layer.
//
// Batches are sampled against a live Snapshot: each op is an insert or a
// delete with equal probability; deletes pick an existing edge (uniform
// vertex, then uniform neighbor), inserts pick uniform vertex pairs biased
// away from existing edges by a few retries. Seeded by SplitMix64, so a
// (seed, snapshot-sequence) pair reproduces the identical op stream on any
// platform — what the equivalence and determinism tests rely on, and what
// makes bench/stream_churn comparable across runs.
#pragma once

#include <cstdint>
#include <vector>

#include "gen/rng.hpp"
#include "stream/dynamic_graph.hpp"
#include "stream/snapshot.hpp"

namespace tcgpu::stream {

class ChurnGenerator {
 public:
  explicit ChurnGenerator(std::uint64_t seed) : rng_(seed) {}

  /// Samples `n` ops against `snap`'s topology. Ops within one batch can
  /// collide (duplicate inserts, deletes of an edge another op removes) —
  /// DynamicGraph::commit counts those as skipped, which is intentional
  /// coverage of the normalization path.
  std::vector<EdgeOp> next_batch(const Snapshot& snap, std::size_t n);

 private:
  gen::SplitMix64 rng_;
};

}  // namespace tcgpu::stream
