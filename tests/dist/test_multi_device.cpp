#include "dist/runner.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "framework/registry.hpp"
#include "framework/runner.hpp"

namespace tcgpu::dist {
namespace {

framework::Engine::Config small_config() {
  framework::Engine::Config cfg;
  cfg.max_edges = 2000;
  cfg.workers = 1;
  return cfg;
}

TEST(MultiDeviceRunner, ZeroDevicesIsRejected) {
  framework::Engine engine(small_config());
  EXPECT_THROW(
      MultiDeviceRunner(engine, {simt::ClusterSpec::single_host(0)}),
      std::invalid_argument);
}

TEST(MultiDeviceRunner, SingleDeviceRunIsBitIdenticalToLegacyPath) {
  // N == 1 must be the single-device engine in disguise: same triangle
  // count and the exact same simulator metrics (the shard image reproduces
  // upload()'s allocation layout, so the address stream is identical).
  framework::Engine engine(small_config());
  const auto graph = engine.prepare("As-Caida");
  for (const auto s : all_partition_strategies()) {
    MultiDeviceRunner runner(engine, {simt::ClusterSpec::single_host(1), s});
    for (const auto& entry : framework::extended_algorithms()) {
      const auto algo = entry.make();
      const auto legacy =
          framework::run_algorithm(*algo, *graph, engine.config().spec);
      const MultiRunResult multi = runner.run(*algo, graph);
      EXPECT_TRUE(multi.valid) << entry.name;
      EXPECT_EQ(multi.triangles, legacy.result.triangles) << entry.name;
      EXPECT_EQ(multi.combined, legacy.result.total) << entry.name;
      ASSERT_EQ(multi.devices.size(), 1u);
      EXPECT_EQ(multi.devices[0].stats, legacy.result.total) << entry.name;
      // One device has nothing to exchange or reduce.
      EXPECT_EQ(multi.ghost_exchange, simt::TransferStats{});
      EXPECT_EQ(multi.count_reduce, simt::TransferStats{});
      EXPECT_DOUBLE_EQ(multi.comm_ms, 0.0);
      EXPECT_DOUBLE_EQ(multi.total_ms, multi.device_ms);
      EXPECT_DOUBLE_EQ(multi.speedup, 1.0);
    }
  }
}

TEST(MultiDeviceRunner, ModelsInterconnectTrafficAcrossDevices) {
  framework::Engine engine(small_config());
  const auto graph = engine.prepare("As-Caida");
  MultiDeviceRunner runner(
      engine, {simt::ClusterSpec::single_host(4), PartitionStrategy::kHash});
  const MultiRunResult r = runner.run("Polak", graph);

  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.triangles, graph->reference_triangles);
  ASSERT_EQ(r.devices.size(), 4u);

  // Hashing a connected graph over four devices replicates rows, so ghosts
  // must move; the count all-reduce moves 2*(N-1) eight-byte payloads.
  EXPECT_GT(r.ghost_exchange.bytes, 0u);
  EXPECT_GT(r.comm_ms, 0.0);
  EXPECT_EQ(r.count_reduce.messages, 6u);
  EXPECT_EQ(r.count_reduce.bytes, 6 * sizeof(std::uint64_t));
  // Synchronous scatter-then-compute is the sum; the reported total overlaps
  // each shard's scatter with its kernel, so it never costs more.
  EXPECT_DOUBLE_EQ(r.agg_sync_ms, r.device_ms + r.comm_ms);
  EXPECT_LE(r.total_ms, r.agg_sync_ms);
  EXPECT_GE(r.total_ms, r.device_ms);

  EXPECT_GE(r.load_imbalance, 1.0);
  EXPECT_GT(r.speedup, 0.0);
  EXPECT_GT(r.partition.replication_factor, 1.0);
  EXPECT_EQ(r.partition.num_devices, 4u);

  // Per-device shares must reassemble the whole problem.
  std::uint64_t triangles = 0, edges = 0, anchors = 0;
  for (const DeviceRun& d : r.devices) {
    triangles += d.triangles;
    edges += d.owned_edges;
    anchors += d.anchor_vertices;
  }
  EXPECT_EQ(triangles, r.triangles);
  EXPECT_EQ(edges, graph->dag.num_edges());
  EXPECT_EQ(anchors, graph->dag.num_vertices());
}

TEST(MultiDeviceRunner, RepeatedRunsAreDeterministic) {
  framework::Engine engine(small_config());
  const auto graph = engine.prepare("P2p-Gnutella31");
  MultiDeviceRunner runner(
      engine,
      {simt::ClusterSpec::single_host(3, simt::InterconnectSpec::pcie3()),
       PartitionStrategy::kRange});
  const MultiRunResult a = runner.run("TRUST", graph);
  const MultiRunResult b = runner.run("TRUST", graph);
  EXPECT_EQ(a.triangles, b.triangles);
  EXPECT_EQ(a.combined, b.combined);  // bit-identical stats
  EXPECT_EQ(a.ghost_exchange, b.ghost_exchange);
  EXPECT_DOUBLE_EQ(a.total_ms, b.total_ms);
}

TEST(MultiDeviceRunner, AllValidStartsTrueAndSurvivesValidRuns) {
  framework::Engine engine(small_config());
  MultiDeviceRunner runner(engine, {simt::ClusterSpec::single_host(2)});
  EXPECT_TRUE(runner.all_valid());
  runner.run("Green", engine.prepare("As-Caida"));
  EXPECT_TRUE(runner.all_valid());
}

}  // namespace
}  // namespace tcgpu::dist
