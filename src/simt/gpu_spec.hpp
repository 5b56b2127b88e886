// Device model: the static parameters and cost weights of the simulated GPU.
//
// The simulator counts architectural events (warp instruction steps, global
// memory transactions, shared-memory accesses and bank conflicts, atomics)
// and converts them to modeled kernel time through this spec. Two presets
// mirror the paper's testbed: Tesla V100 (the card all reported numbers come
// from) and RTX 4090.
#pragma once

#include <cstdint>
#include <string>

namespace tcgpu::simt {

struct GpuSpec {
  std::string name = "generic";

  // --- architecture -------------------------------------------------------
  std::uint32_t sm_count = 80;             ///< streaming multiprocessors
  std::uint32_t warp_size = 32;            ///< lanes per warp (fixed by the model)
  std::uint32_t max_threads_per_block = 1024;
  std::uint32_t shared_mem_per_block = 48 * 1024;  ///< bytes
  std::uint32_t sector_bytes = 32;         ///< global-memory transaction granularity
  std::uint32_t shared_banks = 32;         ///< 4-byte-interleaved banks
  double clock_ghz = 1.38;                 ///< SM clock
  double mem_bandwidth_gbps = 900.0;       ///< device-wide global bandwidth

  // --- cost model (cycles) -------------------------------------------------
  // A warp instruction step costs issue_cycles. Each 32-byte global
  // transaction is looked up in a per-SM direct-mapped sector cache (the
  // L1/L2 stand-in): hits cost l1_hit_cycles, misses cost
  // global_cycles_per_transaction and count toward the device-wide DRAM
  // bandwidth bound. Shared accesses cost shared_cycles_per_access times
  // the bank-conflict degree. Atomics add atomic_extra_cycles on top.
  double issue_cycles = 1.0;
  double global_cycles_per_transaction = 6.0;  ///< cache-miss (DRAM) cost
  double l1_hit_cycles = 1.0;
  std::uint32_t l1_cache_sectors = 4096;  ///< 4096 x 32 B = 128 KiB per SM
  double shared_cycles_per_access = 1.0;
  double atomic_extra_cycles = 6.0;
  /// Fixed driver/runtime cost charged per kernel launch. This is what makes
  /// multi-kernel, heavy-setup algorithms pay on tiny graphs where the
  /// counting work itself is microseconds (the paper's §V explanation of
  /// TRUST's weakness on small datasets).
  double launch_overhead_us = 4.0;

  /// Device-wide bytes per SM-clock cycle (used for the bandwidth bound).
  double bytes_per_cycle() const {
    return mem_bandwidth_gbps * 1e9 / (clock_ghz * 1e9);
  }

  // --- cost-model helpers (shared by the launcher's finalize step and the
  // --- serve::Selector's a-priori kernel scoring) --------------------------

  /// Milliseconds for `cycles` cycles at this SM clock.
  double cycles_to_ms(double cycles) const { return cycles / (clock_ghz * 1e9) * 1e3; }

  /// Fixed modeled driver/runtime cost of `launches` kernel launches, in ms.
  /// This term is what penalizes multi-kernel algorithms (TRUST's degree
  /// buckets, Fox's six bins) on tiny graphs — the paper's §V explanation.
  double launch_overhead_ms(double launches = 1.0) const {
    return launch_overhead_us * 1e-3 * launches;
  }

  /// Milliseconds for `cycles` total cycles of perfectly-parallel work spread
  /// round-robin over the SMs — the critical-SM bound of an even launch.
  /// A-priori models scale their per-warp work estimates through this.
  double parallel_cycles_to_ms(double cycles) const {
    return cycles_to_ms(cycles / static_cast<double>(sm_count));
  }

  static GpuSpec v100();
  static GpuSpec rtx4090();
};

/// Inter-device link model for multi-GPU execution (src/dist/). Transfers
/// are counted in bytes and messages by the ClusterInterconnect cost model
/// and converted to milliseconds here, the same counted-quantity philosophy
/// as the kernel cost model above.
struct InterconnectSpec {
  std::string name = "nvlink";
  double peer_bandwidth_gbps = 25.0;  ///< per peer pair, per direction
  double latency_us = 1.9;            ///< fixed cost per message

  /// Milliseconds for one receiver to take `messages` messages carrying
  /// `bytes` bytes in total over this link, serialized: every message pays
  /// the latency, every byte the bandwidth.
  double time_ms(double messages, double bytes) const {
    return messages * latency_us * 1e-3 +
           bytes / (peer_bandwidth_gbps * 1e9) * 1e3;
  }

  /// Milliseconds to move `bytes` between one device pair as one message.
  double transfer_ms(std::uint64_t bytes) const {
    return time_ms(1.0, static_cast<double>(bytes));
  }

  /// NVLink 2.0 as on the paper's V100 testbed: 25 GB/s per link direction.
  static InterconnectSpec nvlink();
  /// PCIe 3.0 x16: ~12 GB/s achieved, an order of magnitude more latency.
  static InterconnectSpec pcie3();
  /// 10 GbE between hosts: ~1.1 GB/s achieved, tens of microseconds per
  /// message — the topology where per-edge messaging dies and buffered
  /// aggregation is mandatory.
  static InterconnectSpec eth10g();
  /// InfiniBand EDR (100 Gb/s) between hosts: ~11 GB/s achieved, RDMA-class
  /// latency.
  static InterconnectSpec ib_edr();
};

/// Preset lookup by CLI name ("nvlink" | "pcie3" | "eth10g" | "ib-edr");
/// throws std::invalid_argument listing the valid presets on anything else.
InterconnectSpec interconnect_spec_from_string(const std::string& name);
/// The valid preset names, comma-joined, for error messages and --help text.
std::string valid_interconnect_list();

/// One host of a modeled cluster: how many identical GPUs it carries and the
/// link that connects them. The GPUs themselves ride the engine's GpuSpec —
/// hosts are homogeneous, like the paper's testbed nodes.
struct HostSpec {
  std::uint32_t devices = 1;                             ///< GPUs per host
  InterconnectSpec intra = InterconnectSpec::nvlink();   ///< device <-> device
};

/// A two-level hosts x devices cluster: `hosts` identical HostSpec nodes
/// joined by a modeled network link. Device d lives on host d / host.devices
/// (contiguous blocks), so a contiguous device range spans the fewest hosts.
struct ClusterSpec {
  std::string name = "single-host";
  std::uint32_t hosts = 1;
  HostSpec host;
  InterconnectSpec inter = InterconnectSpec::ib_edr();   ///< host <-> host

  std::uint32_t num_devices() const { return hosts * host.devices; }

  /// One host, `devices` GPUs on `link`: every device pair rides `link`
  /// and `inter` is never priced.
  static ClusterSpec single_host(
      std::uint32_t devices,
      InterconnectSpec link = InterconnectSpec::nvlink());
  /// `hosts` NVLink nodes of `devices_per_host` GPUs over 10 GbE.
  static ClusterSpec ethernet(std::uint32_t hosts, std::uint32_t devices_per_host);
  /// `hosts` NVLink nodes of `devices_per_host` GPUs over InfiniBand EDR.
  static ClusterSpec infiniband(std::uint32_t hosts, std::uint32_t devices_per_host);
};

}  // namespace tcgpu::simt
