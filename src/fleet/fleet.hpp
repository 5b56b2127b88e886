// fleet::Fleet — the multi-GPU execution backend.
//
// Plugs into serve::QueryService through serve::ExecutionBackend and unifies
// the serving and dist layers: every resolved query passes through
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
// width on it and each width's runner runs on its share of it.
//
// With Config::devices == 1 every query takes the single-device path on
// slot 0 through the same Engine::run a backend-less QueryService calls —
// counts, picks and KernelStats are bit-identical to the plain service.
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
#include "serve/backend.hpp"
#include "serve/selector.hpp"

namespace tcgpu::fleet {

struct FleetCounters {
  std::uint64_t single_runs = 0;   ///< queries executed on one device
  std::uint64_t sharded_runs = 0;  ///< queries executed split across devices
  std::uint64_t cache_hits = 0;    ///< queries answered without a kernel
  std::uint64_t invalidations = 0; ///< invalidate() calls (version bumps)
};

class Fleet : public serve::ExecutionBackend {
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

  serve::ExecutionOutcome execute(const serve::ExecutionRequest& req) override;
  void invalidate(const std::string& key) override;

  /// The latched (graph key, version) -> placement table, sorted — what
  /// bench/serve_throughput --fleet prints and CI pins. Version-0 entries
  /// print as the bare key, later versions as "key@vN".
  std::vector<std::pair<std::string, std::string>> placement_table() const;

  /// Snapshot of the device slots (residency, busy time, runs).
  std::vector<DeviceSlot> slots() const;

  FleetCounters counters() const;
  CacheCounters cache_counters() const { return cache_.counters(); }
  const Config& config() const { return cfg_; }

 private:
  serve::ExecutionOutcome run_single(const serve::ExecutionRequest& req);
  serve::ExecutionOutcome run_sharded(const serve::ExecutionRequest& req,
                                      const Placement& placement);
  Placement placement_for(const serve::ExecutionRequest& req);
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
