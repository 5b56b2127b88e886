// fleet::Placer — single-vs-sharded placement, priced on the partition the
// run will use.
//
// Extends the selector's question ("which kernel?") with the fleet's
// ("across how many devices?"). Each admissible shard width (2, 4, ... up
// to the fleet size and kMaxShards) is priced exactly as
// dist::MultiDeviceRunner will run it: on the width's dist::shard_shape, on
// the range partition of the prepared DAG under the engine's seed, through
// the runner's own dist::price_run (buffered ghost scatter, every shard
// done at max(its receive, its kernel), then the count all-reduce). So the
// predicted comm time is the run's, bit for bit; only the kernel term is a
// model — the selector's one-device score split k ways,
// (modeled - launch) / k^alpha + launch, on every shard.
//
// The shard_min_kernel_ms bar is checked first, so small graphs stay on
// one device and are never partitioned for pricing; wider placements must
// win by min_speedup. Pricing partitions are discarded (the fleet memoizes
// decisions per graph version). decide() is a pure function of (pick, DAG,
// engine seed, config) — never of device load or arrival order — so
// placement tables are reproducible and pinnable in CI like the picks.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "dist/partition.hpp"
#include "framework/engine.hpp"
#include "graph/csr.hpp"
#include "serve/selector.hpp"
#include "simt/gpu_spec.hpp"

namespace tcgpu::fleet {

/// Every sharded placement uses the range partition, at most 8 wide.
inline constexpr dist::PartitionStrategy kShardStrategy =
    dist::PartitionStrategy::kRange;
inline constexpr std::uint32_t kMaxShards = 8;

/// One priced placement: one device at the selector's score, or k shards
/// at the sharded run's modeled pipeline.
struct Placement {
  bool sharded = false;
  std::uint32_t shards = 1;  ///< 1 when !sharded
  std::uint32_t hosts = 1;   ///< hosts the shards span (dist::shard_shape)
  double kernel_ms = 0.0;    ///< predicted kernel time of every shard
  double comm_ms = 0.0;      ///< ghost scatter + count all-reduce (counted)
  double total_ms = 0.0;     ///< predicted wall time

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
    /// Sharding is inadmissible below this single-device modeled time —
    /// launch + scatter latency dominates small kernels no matter what the
    /// model says about the work term. 50us sits above the modeled NVLink
    /// round-trip floor (~4us of per-message latency plus the all-reduce)
    /// at the repo's default edge cap; tests set 0 to force sharding.
    double shard_min_kernel_ms = 0.05;
    /// Required modeled speedup (single / sharded total) before sharding.
    double min_speedup = 1.2;
  };

  /// Borrows the engine (its seed seeds the pricing partitions, as it
  /// seeds MultiDeviceRunner's) and the selector (the kernels' work
  /// exponents); both must outlive the placer.
  Placer(const framework::Engine& engine, const serve::Selector& selector,
         Config cfg)
      : engine_(engine), selector_(selector), cfg_(std::move(cfg)) {}

  /// Prices `pick` (the selector's choice for this DAG) split `width` ways;
  /// width 1 is the pick's own score. Throws std::invalid_argument when the
  /// pick is not in the selector's pool or the width has no shape on the
  /// cluster.
  Placement price(const serve::Candidate& pick, const graph::Csr& dag,
                  std::uint32_t width) const;

  /// The cheapest admissible placement of `pick`: one device, or the width
  /// whose priced total is lowest and beats one device by min_speedup
  /// (ties keep the narrower width, fewer devices held).
  Placement decide(const serve::Candidate& pick, const graph::Csr& dag) const;

 private:
  const framework::Engine& engine_;
  const serve::Selector& selector_;
  Config cfg_;
};

}  // namespace tcgpu::fleet
