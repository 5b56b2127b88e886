#include "simt/interconnect.hpp"

#include <algorithm>
#include <stdexcept>

namespace tcgpu::simt {

namespace {

std::uint32_t tree_steps(std::uint32_t nodes) {
  std::uint32_t steps = 0;
  for (std::uint32_t span = 1; span < nodes; span <<= 1) ++steps;
  return steps;
}

}  // namespace

ClusterInterconnect::ClusterInterconnect(ClusterSpec spec,
                                         std::uint32_t num_devices)
    : spec_(std::move(spec)), num_devices_(num_devices) {
  if (spec_.hosts == 0 || spec_.host.devices == 0) {
    throw std::invalid_argument(
        "ClusterInterconnect: cluster must have >= 1 host with >= 1 device");
  }
  if (num_devices_ != spec_.num_devices()) {
    throw std::invalid_argument(
        "ClusterInterconnect: num_devices must equal hosts x devices-per-host");
  }
}

ScatterModel ClusterInterconnect::scatter(
    const std::vector<std::vector<std::uint64_t>>& bytes,
    const std::vector<std::vector<std::uint64_t>>& rows, bool aggregate,
    std::uint64_t buffer_bytes) const {
  if (bytes.size() != num_devices_ || rows.size() != num_devices_) {
    throw std::invalid_argument(
        "ClusterInterconnect::scatter: traffic matrices must have one row per "
        "device");
  }
  if (buffer_bytes == 0) {
    throw std::invalid_argument(
        "ClusterInterconnect::scatter: buffer_bytes must be >= 1");
  }
  ScatterModel m;
  m.per_device_ms.assign(num_devices_, 0.0);
  for (std::uint32_t d = 0; d < num_devices_; ++d) {
    if (bytes[d].size() != num_devices_ || rows[d].size() != num_devices_) {
      throw std::invalid_argument(
          "ClusterInterconnect::scatter: traffic matrices must be N x N");
    }
    // Device d's traffic summed per link level, then each level priced once.
    TransferStats intra, inter;
    for (std::uint32_t o = 0; o < num_devices_; ++o) {
      if (o == d) continue;
      const std::uint64_t b = bytes[d][o];
      TransferStats& level = same_host(d, o) ? intra : inter;
      level.bytes += b;
      level.messages +=
          aggregate ? (b + buffer_bytes - 1) / buffer_bytes : rows[d][o];
    }
    intra.time_ms = spec_.host.intra.time_ms(
        static_cast<double>(intra.messages), static_cast<double>(intra.bytes));
    inter.time_ms = spec_.inter.time_ms(static_cast<double>(inter.messages),
                                        static_cast<double>(inter.bytes));
    // Each device serializes its own incoming messages across both levels.
    m.per_device_ms[d] = intra.time_ms + inter.time_ms;
    m.intra.bytes += intra.bytes;
    m.intra.messages += intra.messages;
    m.intra.time_ms = std::max(m.intra.time_ms, intra.time_ms);
    m.inter.bytes += inter.bytes;
    m.inter.messages += inter.messages;
    m.inter.time_ms = std::max(m.inter.time_ms, inter.time_ms);
    m.total.time_ms = std::max(m.total.time_ms, m.per_device_ms[d]);
  }
  m.total.bytes = m.intra.bytes + m.inter.bytes;
  m.total.messages = m.intra.messages + m.inter.messages;
  return m;
}

TransferStats ClusterInterconnect::all_reduce(
    std::uint64_t bytes_per_device) const {
  TransferStats t;
  if (num_devices_ <= 1) return t;  // nothing to exchange
  const std::uint32_t per_host = spec_.host.devices;
  const std::uint32_t hosts = spec_.hosts;
  // Reduce tree up + broadcast tree down within every host (hosts run in
  // parallel; per_host == 1 contributes nothing).
  const std::uint32_t intra_steps = tree_steps(per_host);
  t.bytes = 2ull * hosts * (per_host - 1) * bytes_per_device;
  t.messages = 2ull * hosts * (per_host - 1);
  t.time_ms = 2.0 * intra_steps * spec_.host.intra.transfer_ms(bytes_per_device);
  // One recursive-doubling exchange among the host leaders: every host sends
  // one payload per step, ceil(log2 hosts) steps on the critical path.
  const std::uint32_t inter_steps = tree_steps(hosts);
  t.bytes += static_cast<std::uint64_t>(hosts) * inter_steps * bytes_per_device;
  t.messages += static_cast<std::uint64_t>(hosts) * inter_steps;
  t.time_ms += inter_steps * spec_.inter.transfer_ms(bytes_per_device);
  return t;
}

}  // namespace tcgpu::simt
