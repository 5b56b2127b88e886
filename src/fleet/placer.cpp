#include "fleet/placer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "dist/runner.hpp"

namespace tcgpu::fleet {

std::string Placement::describe() const {
  if (!sharded) return "single";
  std::string label = "shard";
  label += std::to_string(shards);
  label += ':';
  label += dist::to_string(kShardStrategy);
  if (hosts > 1) {
    label += ':';
    label += std::to_string(hosts);
    label += 'h';
  }
  return label;
}

Placement Placer::price(const serve::Candidate& pick, const graph::Csr& dag,
                        std::uint32_t width) const {
  const auto& models = selector_.models();
  const auto model = std::find_if(models.begin(), models.end(), [&](const auto& m) {
    return m.name == pick.algorithm;
  });
  if (model == models.end()) {
    throw std::invalid_argument("Placer: '" + pick.algorithm +
                                "' is not in the selector's pool");
  }
  if (width == 1) {
    return {.kernel_ms = pick.cost.modeled_ms, .total_ms = pick.cost.modeled_ms};
  }
  const auto shape = dist::shard_shape(cfg_.cluster, width);
  if (!shape) {
    throw std::invalid_argument("Placer: no " + std::to_string(width) +
                                "-device shape on the cluster");
  }
  Placement p{.sharded = true, .shards = width, .hosts = shape->hosts};
  // An even 1/k work split shrinks the modeled kernel term by k^alpha (the
  // model is sub-linear in work, so sharding never reaches ideal 1/k), and
  // every shard still pays its own launch.
  const double work_ms =
      std::max(0.0, pick.cost.modeled_ms - pick.cost.launch_ms);
  p.kernel_ms = work_ms / std::pow(static_cast<double>(width),
                                   model->work_exponent) +
                pick.cost.launch_ms;
  const dist::Partitioning parts =
      dist::Partitioner(kShardStrategy, width, engine_.config().seed, p.hosts)
          .partition(dag);
  const dist::RunPricing run =
      dist::price_run(simt::ClusterInterconnect(*shape, width), parts.shards,
                      std::vector<double>(width, p.kernel_ms),
                      /*aggregate=*/true);
  p.comm_ms = run.comm_ms;
  p.total_ms = run.overlap_ms;
  return p;
}

Placement Placer::decide(const serve::Candidate& pick,
                         const graph::Csr& dag) const {
  Placement best = price(pick, dag, 1);
  const std::uint32_t devices = cfg_.cluster.num_devices();
  if (devices < 2 || pick.cost.modeled_ms < cfg_.shard_min_kernel_ms) {
    return best;  // small kernel or no peers: stay on one device
  }
  const std::uint32_t widest = std::min(devices, kMaxShards);
  for (std::uint32_t k = 2; k <= widest; k *= 2) {
    if (!dist::shard_shape(cfg_.cluster, k)) continue;
    const Placement c = price(pick, dag, k);
    // Admissible only when the modeled win over single-device clears the
    // speedup bar; among admissible widths take the cheapest total (strictly
    // cheaper — ties keep the narrower width).
    if (pick.cost.modeled_ms < c.total_ms * cfg_.min_speedup) continue;
    if (c.total_ms < best.total_ms) best = c;
  }
  return best;
}

}  // namespace tcgpu::fleet
