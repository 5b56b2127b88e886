#include "stream/delta_kernel.hpp"

#include <algorithm>

#include "simt/device.hpp"
#include "simt/launch.hpp"
#include "tc/common.hpp"
#include "tc/intersect/merge.hpp"

namespace tcgpu::stream {

namespace {

constexpr std::uint32_t kBlock = 256;  ///< threads per block

}  // namespace

DeltaOutcome intersect_wedges(const simt::GpuSpec& spec,
                              std::span<const graph::VertexId> lists,
                              std::span<const WedgeJob> jobs) {
  DeltaOutcome out;
  const std::size_t num_jobs = jobs.size();
  if (num_jobs == 0) return out;

  simt::Device dev;
  auto d_lists = dev.alloc<graph::VertexId>(lists.size(), "stream.lists");
  auto d_ranges = dev.alloc<std::uint32_t>(num_jobs * 4, "stream.ranges");
  auto d_counts = dev.alloc<std::uint32_t>(num_jobs, "stream.counts");

  std::copy(lists.begin(), lists.end(), d_lists.host_span().begin());
  {
    auto ranges = d_ranges.host_span();
    for (std::size_t j = 0; j < num_jobs; ++j) {
      ranges[j * 4 + 0] = jobs[j].a_lo;
      ranges[j * 4 + 1] = jobs[j].a_hi;
      ranges[j * 4 + 2] = jobs[j].b_lo;
      ranges[j * 4 + 3] = jobs[j].b_hi;
    }
  }

  const std::uint32_t grid = tc::pick_grid(spec, num_jobs, 1, kBlock);
  out.stats = simt::launch_threads(
      spec, grid, kBlock, num_jobs, [&](simt::ThreadCtx& ctx, std::uint64_t j) {
        const std::uint32_t a_lo = ctx.load(d_ranges, j * 4 + 0, TCGPU_SITE());
        const std::uint32_t a_hi = ctx.load(d_ranges, j * 4 + 1, TCGPU_SITE());
        const std::uint32_t b_lo = ctx.load(d_ranges, j * 4 + 2, TCGPU_SITE());
        const std::uint32_t b_hi = ctx.load(d_ranges, j * 4 + 3, TCGPU_SITE());
        const auto found = tc::intersect::MergeSequential::count(
            ctx, {&d_lists, a_lo, a_hi}, {&d_lists, b_lo, b_hi});
        ctx.store(d_counts, j, static_cast<std::uint32_t>(found), TCGPU_SITE());
      });

  const auto counts = d_counts.host_span();
  out.counts.assign(counts.begin(), counts.end());
  return out;
}

}  // namespace tcgpu::stream
