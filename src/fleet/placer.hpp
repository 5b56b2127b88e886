// fleet::Placer — cost-model-driven single-vs-sharded placement.
//
// Extends the selector's question ("which kernel?") with the fleet's
// ("across how many devices?"). For the chosen kernel it compares the
// single-device modeled time against Selector::sharded_cost at each
// admissible shard width (2, 4, ... up to the fleet size): the sub-linear
// kernel speedup of an even 1/k work split against the interconnect's ghost
// scatter + count all-reduce. Small graphs stay on one device — their
// kernels finish before the first ghost byte would land — and only graphs
// whose single-device time clears shard_min_kernel_ms AND whose modeled
// sharded time wins by min_speedup shard out.
//
// Determinism contract: decide() is a pure function of (stats, single-device
// score, config) — never of device load or arrival order — so placement
// tables are reproducible across worker counts and pinnable in CI exactly
// like the selector's picks.
//
// Widths are priced on the fleet's simt::ClusterSpec: a width that fits one
// host pays only the intra link, while wider placements pay the inter-host
// link for the ghost share and all-reduce hops that cross a boundary.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "dist/partition.hpp"
#include "graph/stats.hpp"
#include "serve/selector.hpp"
#include "simt/gpu_spec.hpp"

namespace tcgpu::fleet {

struct Placement {
  bool sharded = false;
  std::uint32_t shards = 1;  ///< 1 when !sharded
  dist::PartitionStrategy strategy = dist::PartitionStrategy::kRange;
  serve::PlacementCost cost;  ///< modeled cost of the decision taken
  double single_ms = 0.0;     ///< the single-device alternative

  /// Stable label for tables and CI pinning: "single" or "shard<k>:<strat>",
  /// with ":<h>h" appended when the placement crosses host boundaries
  /// ("shard8:range:2h").
  std::string describe() const;
};

class Placer {
 public:
  struct Config {
    /// The fleet's topology; shard widths stay <= cluster.num_devices().
    simt::ClusterSpec cluster;
    std::uint32_t max_shards = 8; ///< cap independent of fleet size
    dist::PartitionStrategy strategy = dist::PartitionStrategy::kRange;
    /// Sharding is inadmissible below this single-device modeled time —
    /// launch + scatter latency dominates small kernels no matter what the
    /// model says about the work term. 50us sits above the modeled NVLink
    /// round-trip floor (~4us of per-message latency plus the all-reduce)
    /// at the repo's default edge cap; tests set 0 to force sharding.
    double shard_min_kernel_ms = 0.05;
    /// Required modeled speedup (single / sharded total) before sharding.
    double min_speedup = 1.2;
  };

  /// Borrows the selector (for sharded_cost); it must outlive the placer.
  Placer(const serve::Selector& selector, Config cfg)
      : selector_(selector), cfg_(std::move(cfg)) {}

  /// Picks the cheapest admissible placement of `algorithm` (already chosen
  /// by the selector, scored as `single`) for a graph with these stats.
  /// Throws std::invalid_argument when the cluster has no host or device.
  Placement decide(const std::string& algorithm,
                   const serve::CostBreakdown& single,
                   const graph::GraphStats& stats) const;

  const Config& config() const { return cfg_; }

 private:
  const serve::Selector& selector_;
  Config cfg_;
};

}  // namespace tcgpu::fleet
