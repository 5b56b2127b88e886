// Per-lane memory access events recorded during simulated kernel execution.
//
// Every metered memory operation issued by a lane (global/shared,
// load/store/atomic) is one Event. ThreadCtx hands it to the warp's
// WarpAggregator, which files it straight into the bucket of its (call site,
// lane) pair. After the 32 lanes of a warp finish a phase, the aggregator
// aligns the buckets across lanes by (call site, occurrence index) — the
// simulator's model of a warp-level instruction — and derives nvprof-style
// metrics from the groups (see warp_trace.hpp).
#pragma once

#include <cstdint>

namespace tcgpu::simt {

/// Classification of a metered memory operation.
enum class AccessKind : std::uint8_t {
  kGlobalLoad = 0,
  kGlobalStore = 1,
  kGlobalAtomic = 2,
  kSharedLoad = 3,
  kSharedStore = 4,
  kSharedAtomic = 5,
};

/// One metered access. The call site and lane are implied by the bucket the
/// event sits in.
struct Event {
  std::uint64_t addr;  ///< byte address: device VA for global, arena offset
                       ///< for shared
  AccessKind kind;
  std::uint8_t size;   ///< access width in bytes
};

}  // namespace tcgpu::simt
