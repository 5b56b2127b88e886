// Graph sharding for the simulated multi-GPU runner (src/dist/).
//
// The single-device kernels count each triangle (u < v < w in DAG order)
// exactly once: edge-iterator kernels at its *anchor edge* (u, v),
// vertex-iterator kernels at its *anchor vertex* u. The partitioner keeps
// that invariant across N devices by assigning every anchor edge and every
// anchor vertex to exactly one shard; per-device counts then sum to the
// global count with no cross-device de-duplication pass.
//
// A shard's CSR keeps global vertex ids and a full-size row_ptr (V+1): rows
// the shard never reads stay empty, rows it does read — its own anchors'
// rows plus every row an intersection can probe — carry the full global
// adjacency. Rows homed on another device are *ghosts*; the partitioner
// reports their replication cost and the modeled bytes each device must
// receive over the interconnect to materialize them.
//
// Four strategies, mirroring the multi-GPU systems in the literature:
//   range — contiguous vertex ranges, balanced by out-degree (1D).
//   hash  — vertices hashed to devices with seeded SplitMix64, TRUST-style.
//   2d    — DistTC-flavored grid: anchor edge (u,v) goes to device
//           (row_block(u), col_block(v)); anchor *vertices* go to
//           (row_block(u), hash(u) mod cols), because a pure 2D edge split
//           would scatter adj(u) across a row of devices and break the
//           vertex-anchored kernels' pair enumeration (see DESIGN.md).
//   host  — two-level, for hosts x devices clusters: vertices go to hosts
//           in degree-balanced contiguous ranges (minimizes the inter-host
//           cut — ghosts of a contiguous range mostly live on the same
//           host), then hash to the host's devices (balances where
//           communication is cheap). With hosts == 1 it degenerates to
//           hash over the devices.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr.hpp"

namespace tcgpu::dist {

enum class PartitionStrategy { kRange, kHash, k2D, kHostAware };

/// CLI spelling ("range" / "hash" / "2d" / "host").
std::string to_string(PartitionStrategy s);
/// Inverse of to_string; throws std::invalid_argument on anything else.
PartitionStrategy partition_strategy_from_string(const std::string& name);

/// All strategies, in CLI/report order.
std::vector<PartitionStrategy> all_partition_strategies();

/// One device's slice of the graph, ready for tc::DeviceGraph::upload_shard.
struct Shard {
  std::uint32_t device = 0;

  graph::Csr csr;  ///< global ids, V+1 rows; unread rows empty

  /// Owned anchor edges in CSR order (what edge-iterator kernels walk).
  std::vector<std::uint32_t> edge_u;
  std::vector<std::uint32_t> edge_v;

  /// Owned anchor vertices, ascending (what vertex-iterator kernels walk).
  /// Left empty when use_anchor_list is false (single-device identity path).
  std::vector<std::uint32_t> anchors;
  bool use_anchor_list = false;

  /// Ghost rows: present in csr but homed on another device.
  std::uint64_t ghost_vertices = 0;
  std::uint64_t ghost_entries = 0;

  /// Modeled receive traffic to materialize the ghost rows, grouped by the
  /// owning device. Size N; entry [device] is always zero. recv_rows_from
  /// counts the ghost rows behind each owner's bytes. How many messages
  /// carry them is the interconnect's call (simt::ClusterInterconnect:
  /// buffered flushes, or one per row for the unbuffered baseline).
  std::vector<std::uint64_t> recv_bytes_from;
  std::vector<std::uint64_t> recv_rows_from;

  std::uint64_t recv_bytes() const;
};

/// Replication / balance summary across all shards of one partitioning.
struct PartitionReport {
  PartitionStrategy strategy = PartitionStrategy::kRange;
  std::uint32_t num_devices = 1;
  std::uint64_t total_edges = 0;  ///< global DAG edges

  std::vector<std::uint64_t> owned_edges;    ///< anchor edges per device
  std::vector<std::uint64_t> shard_entries;  ///< CSR entries per device

  /// sum(shard_entries) / total_edges — 1.0 means no ghost duplication.
  double replication_factor = 1.0;
  /// max(owned_edges) / mean(owned_edges) — 1.0 is a perfect split.
  double edge_balance = 1.0;

  std::uint64_t ghost_vertices = 0;  ///< summed over shards
  std::uint64_t ghost_entries = 0;
};

struct Partitioning {
  std::vector<Shard> shards;
  PartitionReport report;
};

class Partitioner {
 public:
  /// `seed` feeds the SplitMix64 vertex hash (hash, 2d and host-aware
  /// strategies); the same (strategy, num_devices, seed, hosts, graph)
  /// always yields the same shards on every platform and every OMP thread
  /// count. num_devices must be >= 1 and a multiple of `hosts`; devices are
  /// assigned to hosts in contiguous blocks (device d on host
  /// d / (num_devices / hosts)) — only the host-aware strategy reads the
  /// host count, the flat strategies ignore it.
  Partitioner(PartitionStrategy strategy, std::uint32_t num_devices,
              std::uint64_t seed, std::uint32_t hosts = 1);

  /// Shards an oriented DAG (graph::prepare_dag output). N == 1 returns one
  /// whole-graph shard with use_anchor_list == false, whose device image is
  /// bit-identical to DeviceGraph::upload's.
  Partitioning partition(const graph::Csr& dag) const;

  PartitionStrategy strategy() const { return strategy_; }
  std::uint32_t num_devices() const { return num_devices_; }
  std::uint32_t hosts() const { return hosts_; }

  /// The 2d strategy's device grid (rows * cols == num_devices); rows == 1
  /// for the other strategies.
  std::uint32_t grid_rows() const { return grid_rows_; }
  std::uint32_t grid_cols() const { return grid_cols_; }

 private:
  PartitionStrategy strategy_;
  std::uint32_t num_devices_;
  std::uint64_t seed_;
  std::uint32_t hosts_ = 1;
  std::uint32_t grid_rows_ = 1;
  std::uint32_t grid_cols_ = 1;
};

}  // namespace tcgpu::dist
