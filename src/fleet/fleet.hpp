// fleet::Fleet — the serving executor: every serve::QueryService runs its
// kernels through one (a one-device fleet it owns, or one it borrows).
//
// Unifies the serving and dist layers: every resolved query passes through
//
//   1. the result cache (cache.hpp) — a repeat of a (graph, version, hint,
//      kernel) question replays the validated count without touching a
//      device; stream version bumps invalidate (Fleet::invalidate);
//   2. the placer (placer.hpp) — single warm device vs sharding across the
//      modeled interconnect, latched per (graph key, version) so placement
//      tables are deterministic and CI-pinnable like selector picks;
//   3. dispatch — single-device runs bind to the slot already holding the
//      graph's image (else the least-busy slot) and charge it the exact
//      bytes the engine accounted; sharded runs go through a pooled
//      dist::MultiDeviceRunner per width (baseline measurement off: the
//      serving path must not pay an extra full kernel per query) and charge
//      each participating slot its shard's kernel time.
//
// The Config's devices / hosts / interconnect / inter fields describe one
// simt::ClusterSpec, built once in the constructor; the placer prices every
// width on it and each width's runner runs on its share of it. With
// devices == 1 (the plain QueryService's fleet) no width is admissible, so
// every miss runs Engine::run on slot 0.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "dist/runner.hpp"
#include "fleet/cache.hpp"
#include "fleet/placer.hpp"
#include "fleet/slot.hpp"
#include "framework/engine.hpp"
#include "serve/selector.hpp"

namespace tcgpu::fleet {

struct FleetCounters {
  std::uint64_t single_runs = 0;   ///< queries executed on one device
  std::uint64_t sharded_runs = 0;  ///< queries executed split across devices
  std::uint64_t cache_hits = 0;    ///< queries answered without a kernel
  std::uint64_t invalidations = 0; ///< invalidate() calls (version bumps)
};

/// One resolved query, ready to execute.
struct ExecutionRequest {
  /// Stable graph identity: dataset name, or "inline:<hash>" for inline
  /// queries. Together with `version` it keys result caching and placement.
  std::string key;
  std::uint64_t version = 0;  ///< graph version (0 = never mutated)
  serve::Hint hint = serve::Hint::kAuto;
  std::string algorithm;  ///< kernel to run (selector's or caller's choice)
  /// The selector's single-device score for `algorithm` on this graph —
  /// placement decisions start from it instead of re-scoring.
  serve::CostBreakdown modeled;
  framework::Engine::GraphHandle graph;
};

struct ExecutionOutcome {
  framework::RunOutcome run;
  bool cache_hit = false;  ///< served from the result cache; run is synthetic
  bool sharded = false;
  std::uint32_t devices = 1;     ///< shards the kernel ran across
  double comm_ms = 0.0;          ///< modeled interconnect time (sharded only)
  std::string placement = "single";  ///< placer's decision label
};

class Fleet {
 public:
  struct Config {
    std::uint32_t devices = 1;  ///< 0 is treated as 1
    /// Link between the devices of one host.
    simt::InterconnectSpec interconnect = simt::InterconnectSpec::nvlink();
    dist::PartitionStrategy strategy = dist::PartitionStrategy::kRange;
    std::uint32_t max_shards = 8;
    /// Placer admissibility knobs (see Placer::Config).
    double shard_min_kernel_ms = 0.05;
    double min_speedup = 1.2;
    bool result_cache = true;
    /// Per-device image budget; 0 = framework::device_budget_bytes(spec).
    std::uint64_t device_capacity_bytes = 0;
    /// Hosts the devices spread over, in contiguous blocks of
    /// devices / hosts; must divide devices. `inter` links the hosts.
    std::uint32_t hosts = 1;
    simt::InterconnectSpec inter = simt::InterconnectSpec::ib_edr();
  };

  /// Borrows the engine (it must outlive the fleet). The placement cost
  /// model runs on the fleet's own Selector instance over the engine's spec
  /// — placement must not wobble with the service's online refinement.
  /// Throws std::invalid_argument unless hosts is a positive divisor of
  /// devices.
  Fleet(framework::Engine& engine, Config cfg);

  /// Thread-safe; throws what the run throws (std::out_of_range for an
  /// unknown algorithm).
  ExecutionOutcome execute(const ExecutionRequest& req);

  /// Drops one graph's device images: the engine's and every width's
  /// shards (in-flight runs keep theirs). For one-shot graphs after their
  /// batch and for a streamed head a commit made stale.
  void release(const framework::Engine::GraphHandle& graph);
  /// After every commit of `key`: drops its cached results, placements and
  /// slot charges (all versions), the engine's cached prepares of it, and
  /// the shard images of every graph named `key`.
  void invalidate(const std::string& key);

  /// The latched (graph key, version) -> placement table, sorted — what
  /// bench/serve_throughput prints and CI pins. Version-0 entries print as
  /// the bare key, later versions as "key@vN".
  std::vector<std::pair<std::string, std::string>> placement_table() const;

  /// Snapshot of the device slots (residency, busy time, runs).
  std::vector<DeviceSlot> slots() const;
  /// Graphs whose shard images are pooled, summed over widths.
  std::size_t sharded_graphs() const;

  FleetCounters counters() const;
  CacheCounters cache_counters() const { return cache_.counters(); }
  const Config& config() const { return cfg_; }

 private:
  ExecutionOutcome run_single(const ExecutionRequest& req);
  ExecutionOutcome run_sharded(const ExecutionRequest& req,
                               const Placement& placement);
  Placement placement_for(const ExecutionRequest& req);
  dist::MultiDeviceRunner& runner_for(std::uint32_t shards);

  framework::Engine& engine_;
  Config cfg_;
  simt::ClusterSpec cluster_;  ///< the topology cfg_ describes
  serve::Selector selector_;  ///< placement scoring only (no refinement)
  Placer placer_;
  ResultCache cache_;

  mutable std::mutex mu_;  ///< guards slots_, placements_, runners_, counters_
  std::vector<DeviceSlot> slots_;
  std::map<std::pair<std::string, std::uint64_t>, Placement> placements_;
  std::map<std::uint32_t, std::unique_ptr<dist::MultiDeviceRunner>> runners_;
  FleetCounters counters_;
};

}  // namespace tcgpu::fleet
