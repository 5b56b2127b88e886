// Host-capacity instrumentation for the billion-edge prepare pipeline:
// peak resident set size (what bounds the largest loadable graph) and the
// engine's cumulative device-upload volume (every run uploads its own
// image, so this sums over runs). bench/table2_datasets and
// bench/prepare_throughput report both; the emit() overload in
// framework/report.hpp appends them as a capacity footer in every output
// format.
#pragma once

#include <cstdint>

namespace tcgpu::framework {

/// Peak resident set size of this process in MiB — Linux VmHWM from
/// /proc/self/status; 0.0 where the platform doesn't expose it.
double peak_rss_mb();

/// Current resident set size in MiB (Linux VmRSS; 0.0 elsewhere). Subtract
/// from a post-stage peak_rss_mb() to isolate one stage's footprint from
/// pages the allocator retained out of earlier stages.
double current_rss_mb();

/// Resets the peak-RSS watermark (Linux: write "5" to /proc/self/clear_refs)
/// so a following peak_rss_mb() isolates one pipeline stage instead of the
/// process high-water mark. Returns false where unsupported — callers must
/// treat the next reading as an upper bound, not a stage cost.
bool reset_peak_rss();

/// The capacity footer: host peak RSS over the measured stage plus bytes
/// uploaded to device images (EngineCounters::bytes_uploaded).
struct CapacityReport {
  double peak_rss_mb = 0.0;
  std::uint64_t bytes_uploaded = 0;
};

}  // namespace tcgpu::framework
