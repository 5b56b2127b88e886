#include "simt/interconnect.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace tcgpu::simt {
namespace {

TEST(InterconnectSpec, PresetsMatchTheirLinkClasses) {
  const auto nv = InterconnectSpec::nvlink();
  EXPECT_EQ(nv.name, "nvlink");
  EXPECT_DOUBLE_EQ(nv.peer_bandwidth_gbps, 25.0);
  const auto pcie = InterconnectSpec::pcie3();
  EXPECT_EQ(pcie.name, "pcie3");
  // PCIe has both less bandwidth and more latency than NVLink.
  EXPECT_LT(pcie.peer_bandwidth_gbps, nv.peer_bandwidth_gbps);
  EXPECT_GT(pcie.latency_us, nv.latency_us);
}

TEST(InterconnectSpec, TransferTimeIsLatencyPlusBandwidthTerm) {
  InterconnectSpec s;
  s.peer_bandwidth_gbps = 10.0;  // 10 GB/s
  s.latency_us = 5.0;
  // 10 MB at 10 GB/s = 1 ms, plus 0.005 ms latency.
  EXPECT_DOUBLE_EQ(s.transfer_ms(10'000'000), 1.005);
  // Zero bytes still pays the message latency.
  EXPECT_DOUBLE_EQ(s.transfer_ms(0), 0.005);
}

/// An N x N traffic matrix of zeros.
std::vector<std::vector<std::uint64_t>> zeros(std::uint32_t n) {
  return std::vector<std::vector<std::uint64_t>>(
      n, std::vector<std::uint64_t>(n, 0));
}

TEST(Interconnect, ScatterSumsTrafficAndTakesSlowestDevice) {
  InterconnectSpec s;
  s.peer_bandwidth_gbps = 1.0;  // 1 GB/s => 1 byte = 1e-6 ms
  s.latency_us = 1.0;           // 1 message = 1e-3 ms
  const ClusterInterconnect net(ClusterSpec::single_host(3, s), 3);
  // Device 0 receives 1 MB from one owner; device 1 receives 1 MB from each
  // of two owners; device 2 receives nothing.
  auto bytes = zeros(3);
  auto rows = zeros(3);
  bytes[0][1] = 1'000'000;
  bytes[1][0] = 1'000'000;
  bytes[1][2] = 1'000'000;
  rows[0][1] = rows[1][0] = rows[1][2] = 1;
  const ScatterModel m = net.scatter(bytes, rows, /*aggregate=*/true);
  EXPECT_EQ(m.total.bytes, 3'000'000u);
  EXPECT_EQ(m.total.messages, 3u);
  // Device 1 is slowest: 2 messages (0.002 ms) + 2 MB (2 ms).
  EXPECT_DOUBLE_EQ(m.total.time_ms, 2.002);
  // One host: everything is intra traffic.
  EXPECT_EQ(m.intra, m.total);
  EXPECT_EQ(m.inter, TransferStats{});
  EXPECT_DOUBLE_EQ(m.per_device_ms[2], 0.0);
}

TEST(Interconnect, ScatterRejectsWrongSizedVectors) {
  const ClusterInterconnect net(ClusterSpec::single_host(4), 4);
  EXPECT_THROW(net.scatter(zeros(3), zeros(4), true), std::invalid_argument);
  EXPECT_THROW(net.scatter(zeros(4), zeros(1), true), std::invalid_argument);
}

TEST(Interconnect, AllReduceIsFreeOnOneDevice) {
  const ClusterInterconnect net(ClusterSpec::single_host(1), 1);
  EXPECT_EQ(net.all_reduce(8), TransferStats{});
}

TEST(Interconnect, AllReduceModelsBinomialTree) {
  InterconnectSpec s;
  s.peer_bandwidth_gbps = 1.0;
  s.latency_us = 1.0;
  // N = 4: reduce + broadcast move 2*(N-1) payloads; critical path is
  // 2*ceil(log2 4) = 4 steps of one payload each.
  const ClusterInterconnect net4(ClusterSpec::single_host(4, s), 4);
  const TransferStats t4 = net4.all_reduce(1000);
  EXPECT_EQ(t4.bytes, 6000u);
  EXPECT_EQ(t4.messages, 6u);
  EXPECT_DOUBLE_EQ(t4.time_ms, 4 * (1e-3 + 1000 * 1e-6));

  // N = 8 adds one more level: 6 steps, 14 payload moves.
  const ClusterInterconnect net8(ClusterSpec::single_host(8, s), 8);
  const TransferStats t8 = net8.all_reduce(1000);
  EXPECT_EQ(t8.bytes, 14'000u);
  EXPECT_EQ(t8.messages, 14u);
  EXPECT_DOUBLE_EQ(t8.time_ms, 6 * (1e-3 + 1000 * 1e-6));
}

TEST(TransferStats, AccumulatesSequentialStages) {
  TransferStats a{100, 2, 0.5};
  const TransferStats b{50, 1, 0.25};
  a += b;
  EXPECT_EQ(a, (TransferStats{150, 3, 0.75}));
}

// --- two-level cluster model ------------------------------------------------

TEST(InterconnectSpec, NetworkPresetsAreSlowerThanDeviceLinks) {
  const auto eth = InterconnectSpec::eth10g();
  const auto ib = InterconnectSpec::ib_edr();
  const auto nv = InterconnectSpec::nvlink();
  EXPECT_EQ(eth.name, "eth10g");
  EXPECT_EQ(ib.name, "ib-edr");
  // Both networks trail NVLink on bandwidth and latency; IB beats Ethernet.
  EXPECT_LT(eth.peer_bandwidth_gbps, nv.peer_bandwidth_gbps);
  EXPECT_LT(ib.peer_bandwidth_gbps, nv.peer_bandwidth_gbps);
  EXPECT_GT(eth.latency_us, ib.latency_us);
  EXPECT_GT(ib.latency_us, nv.latency_us);
}

TEST(InterconnectSpec, FromStringRoundTripsAndRejectsTypos) {
  for (const char* name : {"nvlink", "pcie3", "eth10g", "ib-edr"}) {
    EXPECT_EQ(interconnect_spec_from_string(name).name, name);
  }
  EXPECT_THROW(interconnect_spec_from_string(""), std::invalid_argument);
  EXPECT_THROW(interconnect_spec_from_string("infiniband"),
               std::invalid_argument);
  try {
    interconnect_spec_from_string("NVLINK");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The one-line error names every valid preset.
    EXPECT_NE(std::string(e.what()).find(valid_interconnect_list()),
              std::string::npos);
  }
}

TEST(ClusterSpec, PresetsDescribeHostsTimesDevices) {
  const auto single = ClusterSpec::single_host(4);
  EXPECT_EQ(single.hosts, 1u);
  EXPECT_EQ(single.num_devices(), 4u);
  const auto eth = ClusterSpec::ethernet(4, 8);
  EXPECT_EQ(eth.num_devices(), 32u);
  EXPECT_EQ(eth.host.intra.name, "nvlink");
  EXPECT_EQ(eth.inter.name, "eth10g");
  const auto ib = ClusterSpec::infiniband(2, 4);
  EXPECT_EQ(ib.num_devices(), 8u);
  EXPECT_EQ(ib.inter.name, "ib-edr");
}

TEST(ClusterInterconnect, ValidatesShapeAndDeviceCount) {
  const ClusterSpec one_device;  // single-host default: 1x1
  EXPECT_THROW(ClusterInterconnect(one_device, 2), std::invalid_argument);
  ClusterSpec zero = ClusterSpec::ethernet(2, 2);
  zero.host.devices = 0;
  EXPECT_THROW(ClusterInterconnect(zero, 0), std::invalid_argument);
  EXPECT_NO_THROW(ClusterInterconnect(ClusterSpec::ethernet(2, 2), 4));
}

TEST(ClusterInterconnect, MapsDevicesToContiguousHostBlocks) {
  const ClusterInterconnect net(ClusterSpec::ethernet(2, 3), 6);
  EXPECT_EQ(net.host_of(0), 0u);
  EXPECT_EQ(net.host_of(2), 0u);
  EXPECT_EQ(net.host_of(3), 1u);
  EXPECT_EQ(net.host_of(5), 1u);
  EXPECT_TRUE(net.same_host(0, 2));
  EXPECT_FALSE(net.same_host(2, 3));
  EXPECT_EQ(net.link(0, 1).name, "nvlink");
  EXPECT_EQ(net.link(0, 3).name, "eth10g");
}

TEST(ClusterInterconnect, ScatterPricesEachPairOnItsLinkLevel) {
  // 2 hosts x 2 devices, hand-checkable link constants: intra 1 GB/s / 1 us,
  // inter 0.1 GB/s / 10 us.
  ClusterSpec cs;
  cs.hosts = 2;
  cs.host.devices = 2;
  cs.host.intra = InterconnectSpec{"intra", 1.0, 1.0};
  cs.inter = InterconnectSpec{"inter", 0.1, 10.0};
  const ClusterInterconnect net(cs, 4);

  // Device 0 receives 1000 bytes / 2 rows from device 1 (same host) and
  // 4000 bytes / 4 rows from device 2 (other host); nothing else moves.
  std::vector<std::vector<std::uint64_t>> bytes(4,
                                                std::vector<std::uint64_t>(4));
  std::vector<std::vector<std::uint64_t>> rows(4,
                                               std::vector<std::uint64_t>(4));
  bytes[0][1] = 1000;
  rows[0][1] = 2;
  bytes[0][2] = 4000;
  rows[0][2] = 4;

  // Flat (per-row) messaging: intra = 2 msgs * 1us + 1000 B / 1 GB/s,
  // inter = 4 msgs * 10us + 4000 B / 0.1 GB/s.
  const ScatterModel flat = net.scatter(bytes, rows, /*aggregate=*/false);
  EXPECT_EQ(flat.intra.bytes, 1000u);
  EXPECT_EQ(flat.intra.messages, 2u);
  EXPECT_EQ(flat.inter.bytes, 4000u);
  EXPECT_EQ(flat.inter.messages, 4u);
  const double intra_ms = 2 * 1e-3 + 1000 / 1e9 * 1e3;
  const double inter_ms = 4 * 10e-3 + 4000 / 0.1e9 * 1e3;
  EXPECT_DOUBLE_EQ(flat.intra.time_ms, intra_ms);
  EXPECT_DOUBLE_EQ(flat.inter.time_ms, inter_ms);
  // Device 0 serializes both levels; other devices receive nothing.
  EXPECT_DOUBLE_EQ(flat.per_device_ms[0], intra_ms + inter_ms);
  EXPECT_DOUBLE_EQ(flat.per_device_ms[1], 0.0);
  EXPECT_DOUBLE_EQ(flat.total.time_ms, intra_ms + inter_ms);
  EXPECT_EQ(flat.total.bytes, 5000u);
  EXPECT_EQ(flat.total.messages, 6u);

  // Aggregated with a 2 KiB buffer: bytes unchanged, one buffered message
  // intra (1000 B fits one flush), two inter (4000 B needs two).
  const ScatterModel agg =
      net.scatter(bytes, rows, /*aggregate=*/true, /*buffer_bytes=*/2048);
  EXPECT_EQ(agg.total.bytes, flat.total.bytes);
  EXPECT_EQ(agg.intra.messages, 1u);
  EXPECT_EQ(agg.inter.messages, 2u);
  EXPECT_LT(agg.total.time_ms, flat.total.time_ms);
}

TEST(ClusterInterconnect, ScatterValidatesMatricesAndBuffer) {
  const ClusterInterconnect net(ClusterSpec::ethernet(2, 2), 4);
  const std::vector<std::vector<std::uint64_t>> square(
      4, std::vector<std::uint64_t>(4));
  EXPECT_THROW(net.scatter({{0}}, square, true), std::invalid_argument);
  EXPECT_THROW(net.scatter(square, {{0}}, false), std::invalid_argument);
  EXPECT_THROW(net.scatter(square, square, true, /*buffer_bytes=*/0),
               std::invalid_argument);
}

TEST(ClusterInterconnect, SingleHostAllReduceMatchesFlatModel) {
  // hosts == 1 must reproduce the flat binomial reduce + broadcast tree
  // exactly: 2*(N-1) payload moves over 2*ceil(log2 N) sequential steps —
  // the dist runner's single-host numbers rest on this degeneracy.
  const InterconnectSpec link = InterconnectSpec::nvlink();
  for (const std::uint32_t n : {2u, 3u, 4u, 8u}) {
    std::uint32_t steps = 0;
    for (std::uint32_t span = 1; span < n; span <<= 1) ++steps;
    const TransferStats flat{2ull * (n - 1) * 8, 2ull * (n - 1),
                             2.0 * steps * link.transfer_ms(8)};
    const ClusterInterconnect cluster(ClusterSpec::single_host(n, link), n);
    EXPECT_EQ(cluster.all_reduce(8), flat) << n;
  }
}

TEST(ClusterInterconnect, HierarchicalAllReduceAddsOneLeaderExchange) {
  ClusterSpec cs;
  cs.hosts = 4;
  cs.host.devices = 4;
  cs.host.intra = InterconnectSpec{"intra", 1.0, 1.0};
  cs.inter = InterconnectSpec{"inter", 0.1, 10.0};
  const ClusterInterconnect net(cs, 16);
  const TransferStats t = net.all_reduce(1000);
  // Intra: per host 2*(4-1) payloads, 4 hosts in parallel, 2*log2(4) steps.
  // Inter: recursive doubling among 4 leaders = log2(4) steps, each host
  // sending one payload per step.
  EXPECT_EQ(t.bytes, 2u * 4 * 3 * 1000 + 4u * 2 * 1000);
  EXPECT_EQ(t.messages, 2u * 4 * 3 + 4u * 2);
  const double intra_step = 1e-3 + 1000 / 1e9 * 1e3;
  const double inter_step = 10e-3 + 1000 / 0.1e9 * 1e3;
  EXPECT_DOUBLE_EQ(t.time_ms, 2 * 2 * intra_step + 2 * inter_step);
}

}  // namespace
}  // namespace tcgpu::simt
