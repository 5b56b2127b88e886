// The tentpole correctness grid (labeled `slow` in ctest): every algorithm
// x every partition strategy x several paper datasets, on device counts
// that exercise both the 1-D strategies and a proper 2-D grid. The
// aggregated multi-device count must equal the single-device count, which
// the engine already validates against the CPU reference.
#include <gtest/gtest.h>

#include "dist/runner.hpp"
#include "framework/registry.hpp"

namespace tcgpu::dist {
namespace {

TEST(MultiDeviceGrid, EveryAlgorithmEveryStrategyMatchesTheCpuReference) {
  framework::Engine::Config cfg;
  cfg.max_edges = 2000;
  cfg.workers = 1;
  framework::Engine engine(cfg);

  const std::vector<std::string> datasets = {"As-Caida", "P2p-Gnutella31",
                                             "RoadNet-CA"};
  const std::vector<std::uint32_t> device_counts = {3, 4};  // 1x3 and 2x2 grids

  for (const auto& ds : datasets) {
    const auto graph = engine.prepare(ds);
    for (const auto strategy : all_partition_strategies()) {
      for (const std::uint32_t n : device_counts) {
        MultiDeviceRunner runner(
            engine, {simt::ClusterSpec::single_host(n), strategy});
        for (const auto& entry : framework::extended_algorithms()) {
          const auto algo = entry.make();
          const MultiRunResult multi = runner.run(*algo, graph);
          const framework::RunOutcome single = engine.run(*algo, graph);

          EXPECT_TRUE(single.valid) << entry.name << " on " << ds;
          EXPECT_TRUE(multi.valid)
              << entry.name << " on " << ds << " " << to_string(strategy)
              << " x" << n;
          EXPECT_EQ(multi.triangles, single.result.triangles)
              << entry.name << " on " << ds << " " << to_string(strategy)
              << " x" << n;
          EXPECT_EQ(multi.triangles, graph->reference_triangles);
        }
      }
    }
  }
  EXPECT_TRUE(engine.all_valid());
}

}  // namespace
}  // namespace tcgpu::dist
