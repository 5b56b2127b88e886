#include "dist/runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "framework/registry.hpp"
#include "framework/runner.hpp"
#include "gen/er.hpp"

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

TEST(MultiDeviceRunner, NothingPinsAGraphPastItsLastHandle) {
  // Shard images (and the baseline's image) live for one run, so once the
  // caller drops its handle the graph is gone.
  framework::Engine engine(small_config());
  auto graph = engine.prepare_raw("er", gen::generate_er(300, 2'000, 5));
  const std::weak_ptr<const framework::PreparedGraph> watch = graph;
  MultiDeviceRunner runner(engine, {simt::ClusterSpec::single_host(4)});
  EXPECT_TRUE(runner.run("Polak", graph).valid);
  EXPECT_TRUE(runner.run("TRUST", graph).valid);
  graph.reset();
  EXPECT_TRUE(watch.expired());
}

TEST(MultiDeviceRunner, EvictionRacingShardedRunsKeepsEveryCountExact) {
  // A one-graph cache: runs over a rotation of datasets evict each other's
  // entries while another thread evicts and invalidates on top. Each run
  // holds its own handle and uploads its own images, so every outcome
  // stays valid.
  auto cfg = small_config();
  cfg.max_resident = 1;
  framework::Engine engine(cfg);
  MultiDeviceRunner runner(engine, {simt::ClusterSpec::single_host(4),
                                    PartitionStrategy::kRange,
                                    /*measure_baseline=*/false});
  const std::vector<std::string> rotation = {"As-Caida", "Email-EuAll",
                                             "Com-Dblp"};
  constexpr std::size_t kRounds = 12;
  std::atomic<std::size_t> invalid{0};
  std::atomic<bool> stop{false};

  std::thread evictor([&] {
    for (std::size_t i = 0; !stop.load(); ++i) {
      const std::string& name = rotation[i % rotation.size()];
      if (i % 2 == 0) {
        engine.evict(name);
      } else {
        engine.invalidate(name);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  const auto counter = [&](std::size_t offset, bool sharded) {
    for (std::size_t i = 0; i < kRounds; ++i) {
      const auto graph =
          engine.prepare(rotation[(i + offset) % rotation.size()]);
      const bool valid = sharded ? runner.run("Polak", graph).valid
                                 : engine.run("Polak", graph).valid;
      if (!valid) ++invalid;
    }
  };
  std::vector<std::thread> counters;
  counters.emplace_back(counter, 0, false);
  counters.emplace_back(counter, 1, true);
  counters.emplace_back(counter, 2, true);
  for (auto& t : counters) t.join();
  stop = true;
  evictor.join();

  EXPECT_EQ(invalid.load(), 0u);
  EXPECT_TRUE(runner.all_valid());
  EXPECT_TRUE(engine.all_valid());
}

}  // namespace
}  // namespace tcgpu::dist
