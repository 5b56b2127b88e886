// Modeled multi-GPU / multi-node interconnect (NVLink / PCIe within a host,
// Ethernet / InfiniBand between hosts).
//
// The single-device simulator derives kernel time from counted events; the
// interconnect does the same for inter-device traffic: the dist:: layer
// counts the bytes each shard has to receive from each owner (its ghost
// adjacency rows) and the bytes of the final count reduction, and this model
// converts those counts into transfer time under a latency + bandwidth link
// model. Nothing is sampled or measured — scaling curves come from counted
// quantities exactly like the kernel metrics. One host is just the
// hosts == 1 shape of the same model.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "simt/gpu_spec.hpp"

namespace tcgpu::simt {

/// One modeled transfer aggregate: how much moved, in how many messages,
/// and the modeled wall time on the critical path.
struct TransferStats {
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
  double time_ms = 0.0;

  TransferStats& operator+=(const TransferStats& o) {
    bytes += o.bytes;
    messages += o.messages;
    time_ms += o.time_ms;  // sequential stages add up
    return *this;
  }
  bool operator==(const TransferStats&) const = default;
};

/// Default flush-buffer bound for aggregated ghost scatters: per-destination
/// updates coalesce into buffers of this size and flush one message per full
/// buffer (the Galois buffered-message discipline). 4 MiB keeps the modeled
/// message count per peer pair at ceil(bytes / 4 MiB) instead of one per
/// ghost row.
inline constexpr std::uint64_t kFlushBufferBytes = 4ull << 20;

/// One modeled cluster scatter, split by link level. `total.time_ms` is the
/// critical path (slowest device's receive, intra + inter serialized);
/// `intra`/`inter` class the same traffic by which link carried it, each
/// timed as the slowest device's share of that level. `per_device_ms[d]` is
/// device d's own full receive time — what an overlap model races against
/// that device's kernel.
struct ScatterModel {
  TransferStats total;
  TransferStats intra;
  TransferStats inter;
  std::vector<double> per_device_ms;
};

/// Two-level interconnect: `spec.host.intra` between devices of one host,
/// `spec.inter` between hosts. Device d lives on host d / spec.host.devices.
/// A scatter is priced from the per-pair traffic matrix — which bytes cross
/// a host boundary decides which link model prices them.
class ClusterInterconnect {
 public:
  /// Throws std::invalid_argument when the spec describes zero devices or
  /// num_devices is not hosts x devices-per-host.
  ClusterInterconnect(ClusterSpec spec, std::uint32_t num_devices);

  const ClusterSpec& spec() const { return spec_; }
  std::uint32_t num_devices() const { return num_devices_; }
  std::uint32_t host_of(std::uint32_t device) const {
    return device / spec_.host.devices;
  }
  bool same_host(std::uint32_t a, std::uint32_t b) const {
    return host_of(a) == host_of(b);
  }
  /// The link model pricing traffic between devices a and b.
  const InterconnectSpec& link(std::uint32_t a, std::uint32_t b) const {
    return same_host(a, b) ? spec_.host.intra : spec_.inter;
  }

  /// Ghost scatter from the per-pair traffic matrix: bytes[d][o] (and
  /// rows[d][o] ghost rows) is what device d receives from owner o. Devices
  /// receive in parallel, each serializing its own incoming messages.
  /// `aggregate` selects the message discipline per (d, o) pair:
  ///   true  — buffered: ceil(bytes / buffer_bytes) coalesced flushes;
  ///   false — flat: one message per ghost row (the synchronous per-row
  ///           baseline the buffered path is measured against).
  /// Each device's messages and bytes are summed per link level and each
  /// level is priced once, so on one host a device's receive time is
  /// InterconnectSpec::time_ms of its totals.
  ScatterModel scatter(const std::vector<std::vector<std::uint64_t>>& bytes,
                       const std::vector<std::vector<std::uint64_t>>& rows,
                       bool aggregate,
                       std::uint64_t buffer_bytes = kFlushBufferBytes) const;

  /// Hierarchical all-reduce of one per-device payload: binomial reduce tree
  /// within each host on the intra link, one recursive-doubling exchange
  /// among the host leaders on the inter link, then an intra broadcast tree.
  /// On one host that is a plain binomial reduce + broadcast: 2(N-1)
  /// payload moves over 2*ceil(log2 N) latency-bound steps.
  TransferStats all_reduce(std::uint64_t bytes_per_device) const;

 private:
  ClusterSpec spec_;
  std::uint32_t num_devices_;
};

}  // namespace tcgpu::simt
