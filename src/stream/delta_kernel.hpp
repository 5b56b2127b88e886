// The wedge-delta kernel: the metered core of incremental maintenance.
//
// A batch of effective edge ops becomes one WedgeJob per op — the two
// endpoint neighborhoods, staged (pre-op, in sequential batch order) into
// one flat device array. One simulated thread per job merges its pair of
// sorted lists (composing intersect::merge_collect_probed with metered
// probes) and writes every common neighbor out: for an insert (u,v), each
// surviving w is a new triangle {u,v,w}; for a delete, a destroyed one.
// The host folds the per-job counts into the global triangle delta and the
// matches into per-edge support deltas — no full kernel rerun, work
// proportional to the touched neighborhoods only.
//
// Determinism: one lane per job with a fixed item order, so KernelStats are
// bit-identical across OMP host-thread counts (the simulator contract
// tests/stream/test_churn_equivalence.cpp pins, mirroring
// tests/tc/test_determinism.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.hpp"
#include "simt/gpu_spec.hpp"
#include "simt/metrics.hpp"

namespace tcgpu::stream {

/// One staged wedge intersection: [a_lo, a_hi) and [b_lo, b_hi) index the
/// flat staged-neighborhood array handed to intersect_wedges.
struct WedgeJob {
  std::uint32_t a_lo = 0;
  std::uint32_t a_hi = 0;
  std::uint32_t b_lo = 0;
  std::uint32_t b_hi = 0;
};

struct DeltaOutcome {
  simt::KernelStats stats;
  std::vector<std::uint32_t> counts;     ///< per job: |A ∩ B|
  std::vector<std::uint32_t> match_off;  ///< size jobs+1, prefix into matches
  std::vector<graph::VertexId> matches;  ///< common neighbors, ascending per job
};

/// Uploads the staged lists and job ranges, runs one thread per job, reads
/// back counts and matches. `block` is threads per block (multiple of 32).
DeltaOutcome intersect_wedges(const simt::GpuSpec& spec,
                              std::span<const graph::VertexId> lists,
                              std::span<const WedgeJob> jobs,
                              std::uint32_t block = 256);

}  // namespace tcgpu::stream
