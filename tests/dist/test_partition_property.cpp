// Seeded property test over random shardings: for every drawn (strategy,
// width 2-8, host count dividing the width, seed) on a small paper graph,
// the owned anchor edges partition the DAG's edge set, and the sharded
// Polak count equals the CPU reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dist/partition.hpp"
#include "dist/runner.hpp"
#include "gen/rng.hpp"

namespace tcgpu::dist {
namespace {

TEST(PartitionProperty, RandomShardingsPartitionEdgesAndCountExactly) {
  const std::vector<std::string> datasets = {
      "As-Caida", "P2p-Gnutella31", "Email-EuAll", "Com-Dblp", "RoadNet-CA"};
  const auto strategies = all_partition_strategies();
  gen::SplitMix64 rng(20240521);
  for (int trial = 0; trial < 32; ++trial) {
    const PartitionStrategy strategy = strategies[rng.uniform(strategies.size())];
    const auto width = static_cast<std::uint32_t>(2 + rng.uniform(7));
    std::vector<std::uint32_t> divisors;
    for (std::uint32_t h = 1; h <= width; ++h) {
      if (width % h == 0) divisors.push_back(h);
    }
    const std::uint32_t hosts = divisors[rng.uniform(divisors.size())];
    framework::Engine::Config cfg;
    cfg.max_edges = 1'500;
    cfg.seed = rng.next();
    const std::string& name = datasets[rng.uniform(datasets.size())];
    const std::string where = name + " " + to_string(strategy) + " x" +
                              std::to_string(width) + " over " +
                              std::to_string(hosts) + " hosts, seed " +
                              std::to_string(cfg.seed);

    framework::Engine engine(cfg);
    const auto graph = engine.prepare(name);
    const graph::Csr& dag = graph->dag;
    const Partitioning parts =
        Partitioner(strategy, width, cfg.seed, hosts).partition(dag);
    ASSERT_EQ(parts.shards.size(), width) << where;
    std::map<std::pair<std::uint32_t, std::uint32_t>, int> owners;
    std::uint64_t owned = 0;
    for (const Shard& shard : parts.shards) {
      ASSERT_EQ(shard.edge_u.size(), shard.edge_v.size()) << where;
      owned += shard.edge_u.size();
      for (std::size_t i = 0; i < shard.edge_u.size(); ++i) {
        ++owners[{shard.edge_u[i], shard.edge_v[i]}];
      }
    }
    EXPECT_EQ(owned, dag.num_edges()) << where;
    for (std::uint32_t u = 0; u < dag.num_vertices(); ++u) {
      for (const std::uint32_t v : dag.neighbors(u)) {
        EXPECT_EQ(owners[std::make_pair(u, v)], 1)
            << where << ": edge " << u << "->" << v;
      }
    }

    simt::ClusterSpec cluster = simt::ClusterSpec::infiniband(hosts, width / hosts);
    MultiDeviceRunner runner(engine, {cluster, strategy, /*measure_baseline=*/false});
    const MultiRunResult r = runner.run("Polak", graph);
    EXPECT_EQ(r.triangles, graph->reference_triangles) << where;
    EXPECT_TRUE(r.valid) << where;
  }
}

}  // namespace
}  // namespace tcgpu::dist
