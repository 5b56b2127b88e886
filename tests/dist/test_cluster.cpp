// Multi-device behavior of MultiDeviceRunner on simt::ClusterInterconnect:
// single-host numbers pinned against the flat model written out below,
// count exactness across topologies, the ordering of the four
// (aggregation, overlap) pricings, the per-level exchange split, and the
// width -> cluster shape rule a sharded placement runs on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "dist/runner.hpp"
#include "framework/runner.hpp"
#include "simt/gpu_spec.hpp"

namespace tcgpu::dist {
namespace {

framework::Engine::Config small_config() {
  framework::Engine::Config cfg;
  cfg.max_edges = 2000;
  cfg.workers = 1;
  return cfg;
}

/// A 2-hosts x 2-devices config over NVLink within / `inter` between.
MultiRunConfig cluster_config(PartitionStrategy strategy,
                              const simt::InterconnectSpec& inter) {
  simt::ClusterSpec cs = simt::ClusterSpec::infiniband(2, 2);
  cs.inter = inter;
  return {cs, strategy};
}

// --- the flat single-host model, written out ---------------------------------

/// Ghost scatter on one host: every device receives its ghost rows as one
/// message per owner that sends it anything; devices receive in parallel.
simt::TransferStats flat_scatter(const Partitioning& parts,
                                 const simt::InterconnectSpec& l) {
  simt::TransferStats t;
  for (const Shard& s : parts.shards) {
    std::uint64_t b = 0, m = 0;
    for (const std::uint64_t x : s.recv_bytes_from) {
      b += x;
      m += x > 0 ? 1 : 0;
    }
    t.bytes += b;
    t.messages += m;
    t.time_ms = std::max(
        t.time_ms, static_cast<double>(m) * l.latency_us * 1e-3 +
                       static_cast<double>(b) / (l.peer_bandwidth_gbps * 1e9) *
                           1e3);
  }
  return t;
}

/// Count all-reduce on one host: binomial reduce + broadcast trees.
simt::TransferStats flat_all_reduce(std::uint32_t n,
                                    const simt::InterconnectSpec& l) {
  simt::TransferStats t;
  if (n <= 1) return t;
  std::uint32_t steps = 0;
  for (std::uint32_t span = 1; span < n; span <<= 1) ++steps;
  t.bytes = 2ull * (n - 1) * sizeof(std::uint64_t);
  t.messages = 2ull * (n - 1);
  t.time_ms = 2.0 * steps *
              (l.latency_us * 1e-3 +
               static_cast<double>(sizeof(std::uint64_t)) /
                   (l.peer_bandwidth_gbps * 1e9) * 1e3);
  return t;
}

std::vector<std::vector<std::uint64_t>> bytes_matrix(const Partitioning& p) {
  std::vector<std::vector<std::uint64_t>> m;
  for (const Shard& s : p.shards) m.push_back(s.recv_bytes_from);
  return m;
}

std::vector<std::vector<std::uint64_t>> rows_matrix(const Partitioning& p) {
  std::vector<std::vector<std::uint64_t>> m;
  for (const Shard& s : p.shards) m.push_back(s.recv_rows_from);
  return m;
}

TEST(ClusterInterconnect, SingleHostScatterMatchesFlatOracle) {
  // Pricing each device's summed traffic once per link level reproduces the
  // flat model bit for bit on one host; pricing pair by pair and summing
  // the times does not.
  framework::Engine engine(small_config());
  const auto graph = engine.prepare("As-Caida");
  for (const auto& link :
       {simt::InterconnectSpec::nvlink(), simt::InterconnectSpec::pcie3()}) {
    for (const auto s : all_partition_strategies()) {
      for (const std::uint32_t n : {2u, 4u, 8u}) {
        const Partitioning parts =
            Partitioner(s, n, engine.config().seed).partition(graph->dag);
        const simt::ClusterInterconnect net(
            simt::ClusterSpec::single_host(n, link), n);
        const simt::ScatterModel m = net.scatter(
            bytes_matrix(parts), rows_matrix(parts), /*aggregate=*/true);
        EXPECT_EQ(m.total, flat_scatter(parts, link))
            << link.name << " " << to_string(s) << " x" << n;
        EXPECT_EQ(m.intra, m.total) << to_string(s) << " x" << n;
        EXPECT_EQ(net.all_reduce(sizeof(std::uint64_t)),
                  flat_all_reduce(n, link))
            << link.name << " x" << n;
      }
    }
  }
}

TEST(ClusterRunner, SingleHostCommMatchesFlatOracle) {
  // On one host the runner's scatter, reduce and comm time are the flat
  // model's, for every strategy; the reported total is the overlapped
  // pipeline, which never loses to the synchronous sum.
  framework::Engine engine(small_config());
  const auto graph = engine.prepare("As-Caida");
  const simt::InterconnectSpec link = simt::InterconnectSpec::nvlink();
  for (const auto s : all_partition_strategies()) {
    for (const std::uint32_t n : {2u, 4u, 8u}) {
      MultiDeviceRunner runner(engine,
                               {simt::ClusterSpec::single_host(n, link), s});
      const MultiRunResult r = runner.run("Polak", graph);
      const Partitioning parts =
          Partitioner(s, n, engine.config().seed).partition(graph->dag);
      const simt::TransferStats scatter = flat_scatter(parts, link);
      const simt::TransferStats reduce = flat_all_reduce(n, link);
      EXPECT_EQ(r.hosts, 1u);
      EXPECT_TRUE(r.valid) << to_string(s) << " x" << n;
      EXPECT_EQ(r.ghost_exchange, scatter) << to_string(s) << " x" << n;
      EXPECT_EQ(r.count_reduce, reduce) << to_string(s) << " x" << n;
      EXPECT_EQ(r.comm_ms, scatter.time_ms + reduce.time_ms)
          << to_string(s) << " x" << n;
      EXPECT_EQ(r.agg_sync_ms, r.device_ms + r.comm_ms)
          << to_string(s) << " x" << n;
      EXPECT_EQ(r.total_ms, r.agg_overlap_ms) << to_string(s) << " x" << n;
      EXPECT_LE(r.total_ms, r.agg_sync_ms) << to_string(s) << " x" << n;
      EXPECT_EQ(r.intra_exchange, r.ghost_exchange) << to_string(s);
      EXPECT_EQ(r.inter_exchange, simt::TransferStats{}) << to_string(s);
    }
  }
}

TEST(ClusterRunner, CountsStayExactAcrossTopologies) {
  // The comm model only prices time; the count must equal the CPU reference
  // on every topology and strategy.
  framework::Engine engine(small_config());
  const auto graph = engine.prepare("As-Caida");
  for (const auto& inter :
       {simt::InterconnectSpec::eth10g(), simt::InterconnectSpec::ib_edr()}) {
    for (const auto s : all_partition_strategies()) {
      MultiDeviceRunner runner(engine, cluster_config(s, inter));
      const MultiRunResult r = runner.run("TRUST", graph);
      EXPECT_TRUE(r.valid) << to_string(s) << " over " << inter.name;
      EXPECT_EQ(r.triangles, graph->reference_triangles);
      EXPECT_EQ(r.hosts, 2u);
    }
  }
}

TEST(ClusterRunner, PricesAllFourCombosInOrder) {
  framework::Engine engine(small_config());
  const auto graph = engine.prepare("As-Caida");
  MultiDeviceRunner runner(
      engine,
      cluster_config(PartitionStrategy::kHostAware,
                     simt::InterconnectSpec::eth10g()));
  const MultiRunResult r = runner.run("Polak", graph);

  // Aggregation can only drop messages; overlap can only hide time. The
  // full pipeline is the fastest corner, the flat synchronous baseline the
  // slowest; both come from this one run.
  EXPECT_GT(r.flat_sync_ms, 0.0);
  EXPECT_LE(r.agg_sync_ms, r.flat_sync_ms);
  EXPECT_LE(r.flat_overlap_ms, r.flat_sync_ms);
  EXPECT_LE(r.agg_overlap_ms, r.agg_sync_ms);
  EXPECT_LE(r.agg_overlap_ms, r.flat_overlap_ms);
  // A ghost row is far smaller than the flush buffer, so per-row messaging
  // on a slow link must strictly lose to the buffered scatter.
  EXPECT_LT(r.agg_sync_ms, r.flat_sync_ms);
  // Overlapped shards still finish no earlier than compute alone.
  EXPECT_GE(r.agg_overlap_ms, r.device_ms);

  // total_ms reports the full pipeline.
  EXPECT_DOUBLE_EQ(r.total_ms, r.agg_overlap_ms);
}

TEST(ClusterRunner, AggregationShrinksMessagesNotBytes) {
  framework::Engine engine(small_config());
  const auto graph = engine.prepare("As-Caida");
  const MultiRunResult r =
      MultiDeviceRunner(engine,
                        cluster_config(PartitionStrategy::kHostAware,
                                       simt::InterconnectSpec::eth10g()))
          .run("Polak", graph);

  // Buffering coalesces per-row updates into bounded flushes: the exchange
  // carries every ghost row's bytes (4 per entry + an 8-byte header) in far
  // fewer messages than the one-per-row flat discipline's ghost_vertices,
  // so the buffered synchronous time beats the flat one.
  EXPECT_EQ(r.ghost_exchange.bytes,
            r.partition.ghost_entries * 4 + r.partition.ghost_vertices * 8);
  EXPECT_LT(r.ghost_exchange.messages, r.partition.ghost_vertices);
  EXPECT_LT(r.agg_sync_ms, r.flat_sync_ms);
  EXPECT_LT(r.agg_overlap_ms, r.flat_overlap_ms);
}

TEST(ClusterRunner, SplitsExchangeByLinkLevel) {
  framework::Engine engine(small_config());
  const auto graph = engine.prepare("As-Caida");
  MultiDeviceRunner runner(
      engine,
      cluster_config(PartitionStrategy::kHostAware,
                     simt::InterconnectSpec::eth10g()));
  const MultiRunResult r = runner.run("Polak", graph);

  EXPECT_EQ(r.intra_exchange.bytes + r.inter_exchange.bytes,
            r.ghost_exchange.bytes);
  EXPECT_EQ(r.intra_exchange.messages + r.inter_exchange.messages,
            r.ghost_exchange.messages);
  // As-Caida sharded four ways ghosts rows in both directions on both
  // levels.
  EXPECT_GT(r.intra_exchange.bytes, 0u);
  EXPECT_GT(r.inter_exchange.bytes, 0u);
  // Per-shard receive time is populated for the overlap race.
  double max_recv = 0.0;
  for (const DeviceRun& d : r.devices) max_recv = std::max(max_recv, d.recv_ms);
  EXPECT_GT(max_recv, 0.0);
}

TEST(ShardShape, FewestPowerOfTwoHostsSplitEvenly) {
  const auto shape = [](const simt::ClusterSpec& cluster, std::uint32_t k) {
    const auto s = shard_shape(cluster, k);
    return s ? std::make_pair(s->hosts, s->host.devices)
             : std::make_pair(0u, 0u);
  };
  using P = std::pair<std::uint32_t, std::uint32_t>;
  const auto one = simt::ClusterSpec::single_host(4);
  EXPECT_EQ(shape(one, 1), P(1, 1));
  EXPECT_EQ(shape(one, 2), P(1, 2));
  EXPECT_EQ(shape(one, 4), P(1, 4));
  const auto two_by_four = simt::ClusterSpec::infiniband(2, 4);
  EXPECT_EQ(shape(two_by_four, 4), P(1, 4));  // fits one host
  EXPECT_EQ(shape(two_by_four, 8), P(2, 4));
  // 3 devices per host: width 4 spans 2 hosts x 2, not a 3 + 1 fill.
  const auto two_by_three = simt::ClusterSpec::infiniband(2, 3);
  EXPECT_EQ(shape(two_by_three, 2), P(1, 2));
  EXPECT_EQ(shape(two_by_three, 4), P(2, 2));
  EXPECT_EQ(shape(two_by_three, 6), P(2, 3));
  // The shape keeps the cluster's links.
  const auto s = shard_shape(two_by_three, 4);
  ASSERT_TRUE(s);
  EXPECT_EQ(s->host.intra.name, two_by_three.host.intra.name);
  EXPECT_EQ(s->inter.name, two_by_three.inter.name);
}

TEST(ShardShape, RejectsShapesTheClusterLacks) {
  EXPECT_FALSE(shard_shape(simt::ClusterSpec::ethernet(2, 2), 8));  // too wide
  EXPECT_FALSE(shard_shape(simt::ClusterSpec::single_host(4), 0));
  // 9 devices over 3 hosts: width 8 needs 4 power-of-two hosts.
  EXPECT_FALSE(shard_shape(simt::ClusterSpec::infiniband(3, 3), 8));
  // 3 single-device hosts: width 3 has no power-of-two host count.
  EXPECT_FALSE(shard_shape(simt::ClusterSpec::infiniband(3, 1), 3));
}

}  // namespace
}  // namespace tcgpu::dist
