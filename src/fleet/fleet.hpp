// fleet::Fleet — the serving executor: every serve::QueryService runs its
// kernels through one (a one-device fleet it owns, or one it borrows).
//
// Unifies the serving and dist layers: every resolved query passes through
//
//   1. the result cache (cache.hpp) — a repeat of a (graph, version,
//      kernel) question replays the validated count without touching a
//      device; stream version bumps invalidate (Fleet::invalidate);
//   2. the placer (placer.hpp) — one device vs sharding, each width priced
//      on the partition it would run, from the selector's pick for the
//      graph version whatever kernel the query runs, so a placement is a
//      function of (graph, config) and placement tables are CI-pinnable;
//   3. dispatch — a single-device run is one Engine::run charged to the
//      least-busy slot; a sharded run is one dist::MultiDeviceRunner run on
//      the width's dist::shard_shape (the shape the placer priced;
//      baseline measurement off: the serving path must not pay an extra
//      full kernel per query) and charges each participating slot its
//      shard's kernel time. Either way the run uploads its own device
//      images and frees them when it returns.
//
// The Config's devices / hosts / interconnect / inter fields describe one
// simt::ClusterSpec, built once in the constructor; the placer prices every
// width on it and each sharded run runs on its share of it. With
// devices == 1 (the plain QueryService's fleet) no width is admissible, so
// every miss runs Engine::run on slot 0.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

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
  /// invalidate() calls: one per commit that bumped a version, and one per
  /// inline batch, which drops what the one-shot graph left behind.
  std::uint64_t invalidations = 0;
};

/// One resolved query, ready to execute.
struct ExecutionRequest {
  /// Stable graph identity: dataset name, or "inline:<hash>" for inline
  /// queries. Together with `version` it keys result caching and placement.
  std::string key;
  std::uint64_t version = 0;  ///< graph version (0 = never mutated)
  std::string algorithm;  ///< kernel to run (selector's or caller's choice)
  framework::Engine::GraphHandle graph;
};

struct ExecutionOutcome {
  framework::RunOutcome run;
  bool cache_hit = false;  ///< served from the result cache; run is synthetic
  Placement placement;     ///< the placer's decision and its prediction
  double comm_ms = 0.0;    ///< modeled interconnect time (sharded only)
  double realized_ms = 0.0;  ///< the run's modeled wall time (0 on a hit)
};

class Fleet {
 public:
  struct Config {
    std::uint32_t devices = 1;  ///< 0 is treated as 1
    /// Link between the devices of one host.
    simt::InterconnectSpec interconnect = simt::InterconnectSpec::nvlink();
    /// Placer admissibility knobs (see Placer::Config).
    double shard_min_kernel_ms = 0.05;
    double min_speedup = 1.2;
    bool result_cache = true;
    /// Hosts the devices spread over, in contiguous blocks of
    /// devices / hosts; must divide devices. `inter` links the hosts.
    std::uint32_t hosts = 1;
    simt::InterconnectSpec inter = simt::InterconnectSpec::ib_edr();
  };

  /// Borrows the engine (it must outlive the fleet). Placements are priced
  /// on the fleet's own Selector over the engine's spec. Throws
  /// std::invalid_argument unless hosts is a positive divisor of devices.
  Fleet(framework::Engine& engine, Config cfg);

  /// Thread-safe; throws what the run throws (std::out_of_range for an
  /// unknown algorithm).
  ExecutionOutcome execute(const ExecutionRequest& req);

  /// Drops everything kept under `key`: its cached results and placements
  /// (all versions) and the engine's cached prepares of it. Called after
  /// every commit of `key` and at the end of every inline batch.
  void invalidate(const std::string& key);

  /// The (graph key, version) -> placement table, sorted — what
  /// bench/serve_throughput prints and CI pins. Version-0 entries print as
  /// the bare key, later versions as "key@vN".
  std::vector<std::pair<std::string, std::string>> placement_table() const;

  /// Snapshot of the device slots (busy time, runs).
  std::vector<DeviceSlot> slots() const;

  FleetCounters counters() const;
  CacheCounters cache_counters() const { return cache_.counters(); }
  const Config& config() const { return cfg_; }

 private:
  ExecutionOutcome run_single(const ExecutionRequest& req);
  ExecutionOutcome run_sharded(const ExecutionRequest& req,
                               const Placement& placement);
  Placement placement_for(const ExecutionRequest& req);

  framework::Engine& engine_;
  Config cfg_;
  simt::ClusterSpec cluster_;  ///< the topology cfg_ describes
  serve::Selector selector_;  ///< the pick every placement is priced from
  Placer placer_;
  ResultCache cache_;

  mutable std::mutex mu_;  ///< guards slots_, placements_, counters_
  std::vector<DeviceSlot> slots_;
  std::map<std::pair<std::string, std::uint64_t>, Placement> placements_;
  FleetCounters counters_;
};

}  // namespace tcgpu::fleet
