// The wedge-delta kernel: the metered core of incremental maintenance.
//
// A batch of effective edge ops becomes one WedgeJob per op — the two
// endpoint neighborhoods, staged (pre-op, in sequential batch order) into
// one flat device array. One simulated thread per job merges its pair of
// sorted lists with tc::intersect::MergeSequential and stores one count,
// |N(u) ∩ N(v)|: for an insert (u,v), the triangles {u,v,w} it closes; for
// a delete, the ones it opens — the per-edge merge count of Polak's kernel.
// The host folds the signed counts into the global triangle delta — no
// full kernel rerun, work proportional to the touched neighborhoods only.
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
  std::vector<std::uint32_t> counts;  ///< per job: |A ∩ B|
};

/// Uploads the staged lists and job ranges, runs one thread per job in
/// 256-thread blocks, reads back the per-job counts.
DeltaOutcome intersect_wedges(const simt::GpuSpec& spec,
                              std::span<const graph::VertexId> lists,
                              std::span<const WedgeJob> jobs);

}  // namespace tcgpu::stream
