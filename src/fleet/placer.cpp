#include "fleet/placer.hpp"

#include <algorithm>

namespace tcgpu::fleet {

std::string Placement::describe() const {
  if (!sharded) return "single";
  std::string label = "shard";
  label += std::to_string(shards);
  label += ':';
  label += dist::to_string(strategy);
  if (cost.hosts > 1) {
    label += ':';
    label += std::to_string(cost.hosts);
    label += 'h';
  }
  return label;
}

Placement Placer::decide(const std::string& algorithm,
                         const serve::CostBreakdown& single,
                         const graph::GraphStats& stats) const {
  Placement best;
  best.cost = selector_.sharded_cost(algorithm, single, 1, stats, cfg_.cluster);
  best.single_ms = single.modeled_ms;
  const std::uint32_t devices = cfg_.cluster.num_devices();
  if (devices < 2 || single.modeled_ms < cfg_.shard_min_kernel_ms) {
    return best;  // small kernel or no peers: stay on one device
  }
  const std::uint32_t widest = std::min(devices, cfg_.max_shards);
  for (std::uint32_t k = 2; k <= widest; k *= 2) {
    const serve::PlacementCost c =
        selector_.sharded_cost(algorithm, single, k, stats, cfg_.cluster);
    // Admissible only when the modeled win over single-device clears the
    // speedup bar; among admissible widths take the cheapest total (strictly
    // cheaper — ties keep the narrower width, fewer devices held).
    if (single.modeled_ms < c.total_ms * cfg_.min_speedup) continue;
    if (c.total_ms < best.cost.total_ms) {
      best.sharded = true;
      best.shards = k;
      best.strategy = cfg_.strategy;
      best.cost = c;
    }
  }
  return best;
}

}  // namespace tcgpu::fleet
