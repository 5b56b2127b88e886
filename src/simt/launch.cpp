#include "simt/launch.hpp"

#include <algorithm>
#include <cmath>

namespace tcgpu::simt::detail {

void launch_error(const std::string& what) { throw std::runtime_error(what); }

void bounds_error(const char* op, std::size_t i, std::size_t size) {
  launch_error(std::string("device ") + op + " out of bounds: index " +
               std::to_string(i) + " size " + std::to_string(size));
}

void shared_bounds_error(const char* op, std::size_t i, std::size_t size) {
  launch_error(std::string(op) + " out of bounds: index " + std::to_string(i) +
               " size " + std::to_string(size));
}

void validate_config(const GpuSpec& spec, const LaunchConfig& cfg) {
  auto fail = [](const std::string& msg) { throw std::invalid_argument(msg); };
  if (cfg.grid == 0) fail("launch: grid must be >= 1");
  if (cfg.block == 0 || cfg.block % 32 != 0) {
    fail("launch: block must be a positive multiple of 32");
  }
  if (cfg.block > spec.max_threads_per_block) {
    fail("launch: block exceeds max_threads_per_block");
  }
  const bool subwarp = cfg.group_size >= 1 && cfg.group_size <= 32 &&
                       (32 % cfg.group_size) == 0;
  if (!subwarp && cfg.group_size != cfg.block) {
    fail("launch: group_size must be 1/2/4/8/16/32 or equal to block");
  }
  if ((spec.l1_cache_sectors & (spec.l1_cache_sectors - 1)) != 0 ||
      spec.l1_cache_sectors == 0) {
    fail("launch: l1_cache_sectors must be a power of two");
  }
  // The launcher runs 32 lanes per warp into a 32-lane WarpAggregator.
  if (spec.warp_size != WarpAggregator::kLanes) fail("launch: warp_size must be 32");
  // conflict_degree tallies per bank in a 64-entry array.
  if (spec.shared_banks == 0 || spec.shared_banks > 64) {
    fail("launch: shared_banks must be in [1, 64]");
  }
  if (spec.sector_bytes == 0) fail("launch: sector_bytes must be >= 1");
  // finalize places blocks round-robin over the SMs and divides by the clock
  // and the bandwidth; a spec it cannot price is a config error, not a
  // SIGFPE or an infinite time_ms.
  if (spec.sm_count == 0) fail("launch: sm_count must be >= 1");
  if (!(std::isfinite(spec.clock_ghz) && spec.clock_ghz > 0.0)) {
    fail("launch: clock_ghz must be positive and finite");
  }
  if (!(std::isfinite(spec.mem_bandwidth_gbps) && spec.mem_bandwidth_gbps > 0.0)) {
    fail("launch: mem_bandwidth_gbps must be positive and finite");
  }
}

KernelStats finalize(const GpuSpec& spec, const std::vector<double>& block_cycles,
                     KernelMetrics m, std::uint64_t warps_launched) {
  m.warps_launched = warps_launched;

  // Round-robin block placement over SMs; the critical SM bounds issue time.
  std::vector<double> sm_cycles(spec.sm_count, 0.0);
  for (std::size_t b = 0; b < block_cycles.size(); ++b) {
    sm_cycles[b % spec.sm_count] += block_cycles[b];
  }
  double issue = 0.0;
  for (double c : sm_cycles) issue = std::max(issue, c);

  // Device-wide DRAM bandwidth bound (cache misses only reach DRAM).
  const double bytes =
      static_cast<double>(m.global_dram_transactions) * spec.sector_bytes;
  const double bw = bytes / spec.bytes_per_cycle();

  const double cycles = std::max(issue, bw);
  KernelStats stats;
  stats.metrics = m;
  stats.time_ms = spec.cycles_to_ms(cycles) + spec.launch_overhead_ms();
  return stats;
}

}  // namespace tcgpu::simt::detail
