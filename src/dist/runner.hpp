// Simulated multi-GPU / multi-node execution of the single-device ITC
// kernels.
//
// MultiDeviceRunner shards a prepared graph with a Partitioner, keeps one
// resident device image per shard (the same pooled-upload + based-scratch
// discipline framework::Engine uses for single-device runs), launches the
// unmodified kernel on every shard, and models what the real systems pay
// on top of compute: a ghost-row scatter before the kernels and an
// all-reduce of the per-device counts after them, both priced by
// simt::ClusterInterconnect on the configured simt::ClusterSpec (one host
// is its hosts == 1 shape). The scatter is priced under both message
// disciplines (buffered flushes vs one message per ghost row) and with and
// without comm/compute overlap (each shard races its kernel against its
// incoming scatter). All four combinations come from the same kernel
// executions; total_ms is the buffered + overlapped pipeline, and the flat
// synchronous baseline is reported next to it.
//
// Counts aggregate by plain summation — the partitioner assigns each
// anchor (edge or vertex) to exactly one shard, so per-device counts are
// disjoint. N == 1 degenerates to the single-device path bit-for-bit:
// same device addresses, same metrics, zero modeled communication.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "dist/partition.hpp"
#include "framework/engine.hpp"
#include "simt/interconnect.hpp"

namespace tcgpu::dist {

struct MultiRunConfig {
  /// The modeled topology: cluster.num_devices() shards, device d on host
  /// d / cluster.host.devices. ClusterSpec::single_host(n, link) is the
  /// one-host shape.
  simt::ClusterSpec cluster;
  PartitionStrategy strategy = PartitionStrategy::kRange;
  /// Run the whole-graph single-device baseline per (graph, algorithm) for
  /// single_device_ms / speedup. The scaling benches want it; the fleet's
  /// serving path turns it off — it already has the selector's model and
  /// must not pay an extra full kernel per placed query.
  bool measure_baseline = true;
};

/// One shard's share of a run.
struct DeviceRun {
  std::uint32_t device = 0;
  std::uint64_t triangles = 0;       ///< triangles anchored in this shard
  std::uint64_t owned_edges = 0;     ///< anchor edges assigned to the shard
  std::uint64_t anchor_vertices = 0; ///< anchor vertices assigned
  simt::KernelStats stats;           ///< this shard's kernel launches
  /// This shard's own buffered scatter-receive time — what its kernel
  /// overlaps against. Its serialized completion is recv_ms +
  /// stats.time_ms, its overlapped one max(recv_ms, stats.time_ms).
  double recv_ms = 0.0;
};

struct MultiRunResult {
  std::string algorithm;
  std::string dataset;
  std::uint32_t num_devices = 1;
  std::uint32_t hosts = 1;
  PartitionStrategy strategy = PartitionStrategy::kRange;

  std::uint64_t triangles = 0;  ///< sum over shards (modeled all-reduce)
  bool valid = false;           ///< triangles == CPU reference

  std::vector<DeviceRun> devices;
  simt::KernelStats combined;  ///< summed over shards (total simulated work)

  double device_ms = 0.0;  ///< max over shards — devices run in parallel
  simt::TransferStats ghost_exchange;  ///< buffered pre-kernel ghost scatter
  simt::TransferStats count_reduce;    ///< post-kernel count all-reduce
  double comm_ms = 0.0;   ///< ghost_exchange + count_reduce time
  double total_ms = 0.0;  ///< modeled wall time: agg_overlap_ms

  /// The same run priced under every (aggregation, overlap) combination, so
  /// a sweep reports the flat synchronous baseline and the pipelined path
  /// from one set of kernel executions. agg_sync_ms == device_ms + comm_ms.
  double flat_sync_ms = 0.0;     ///< per-row messages, scatter then compute
  double flat_overlap_ms = 0.0;  ///< per-row messages hidden behind compute
  double agg_sync_ms = 0.0;      ///< buffered messages, scatter then compute
  double agg_overlap_ms = 0.0;   ///< buffered + hidden — the full pipeline
  /// ghost_exchange split by link level (intra + inter == ghost_exchange
  /// bytes/messages); inter is empty on one host.
  simt::TransferStats intra_exchange;
  simt::TransferStats inter_exchange;

  double single_device_ms = 0.0;  ///< same algorithm, whole graph, one device
  double speedup = 0.0;           ///< single_device_ms / total_ms
  double load_imbalance = 1.0;    ///< max / mean of per-shard kernel ms

  PartitionReport partition;
};

class MultiDeviceRunner {
 public:
  /// Borrows the engine for graph preparation, the single-device baseline,
  /// and its GpuSpec/seed; the engine must outlive the runner. The
  /// partition hash is seeded from the engine's configured seed. Throws
  /// std::invalid_argument when the cluster has no host or no device.
  MultiDeviceRunner(framework::Engine& engine, MultiRunConfig cfg);

  /// Shards the graph (once per graph, pooled), runs the algorithm on every
  /// shard, and aggregates. Thread-safe; an aggregate mismatch against the
  /// CPU reference latches all_valid().
  MultiRunResult run(const tc::TriangleCounter& algo,
                     const framework::Engine::GraphHandle& graph);
  /// Same, by registry name.
  MultiRunResult run(const std::string& algorithm,
                     const framework::Engine::GraphHandle& graph);

  /// Drops one graph's pooled shard images (in-flight runs keep theirs) —
  /// the twin of Engine::release_device. False if none were pooled.
  bool release(const framework::Engine::GraphHandle& graph);
  /// Same for every graph named `name`; returns how many were dropped.
  std::size_t invalidate(const std::string& name);
  std::size_t resident_graphs() const;  ///< graphs with pooled shards

  const MultiRunConfig& config() const { return cfg_; }
  bool all_valid() const;

 private:
  /// Resident images of one graph's shards (analogue of Engine::Resident).
  struct ShardSet;

  std::shared_ptr<ShardSet> acquire_shards(
      const framework::Engine::GraphHandle& graph);
  double baseline_ms(const tc::TriangleCounter& algo,
                     const framework::Engine::GraphHandle& graph);

  framework::Engine& engine_;
  MultiRunConfig cfg_;
  simt::ClusterInterconnect net_;

  mutable std::mutex pool_mu_;  ///< guards pool_ map shape
  std::map<const framework::PreparedGraph*, std::shared_ptr<ShardSet>> pool_;

  mutable std::mutex baseline_mu_;  ///< guards baselines_ and all_valid_
  std::map<std::pair<const framework::PreparedGraph*, std::string>, double>
      baselines_;
  bool all_valid_ = true;
};

}  // namespace tcgpu::dist
