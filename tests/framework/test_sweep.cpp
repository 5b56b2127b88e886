#include "framework/engine.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace tcgpu::framework {
namespace {

TEST(Sweep, RunsSelectedDatasetsAgainstSelectedAlgorithms) {
  BenchOptions opt;
  opt.max_edges = 5'000;
  opt.datasets = {"As-Caida", "RoadNet-CA"};
  std::vector<AlgorithmEntry> algos;
  for (const auto& e : all_algorithms()) {
    if (e.name == "Polak" || e.name == "TRUST") algos.push_back(e);
  }
  std::ostringstream progress;
  const auto rows = Engine(opt).sweep(algos, progress);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].graph->name, "As-Caida");
  EXPECT_EQ(rows[1].graph->name, "RoadNet-CA");
  for (const auto& row : rows) {
    ASSERT_EQ(row.outcomes.size(), 2u);
    for (const auto& out : row.outcomes) {
      EXPECT_TRUE(out.valid) << out.algorithm << " on " << out.dataset;
      EXPECT_GT(out.result.total.time_ms, 0.0);
    }
  }
  // Progress log names both datasets and both algorithms.
  const std::string log = progress.str();
  EXPECT_NE(log.find("As-Caida"), std::string::npos);
  EXPECT_NE(log.find("TRUST"), std::string::npos);
}

TEST(Sweep, KeepsPaperDatasetOrder) {
  BenchOptions opt;
  opt.max_edges = 2'000;
  opt.datasets = {"Wiki-Talk", "As-Caida"};  // selection order must not matter
  std::vector<AlgorithmEntry> algos = {all_algorithms()[1]};  // Polak
  std::ostringstream progress;
  const auto rows = Engine(opt).sweep(algos, progress);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].graph->name, "As-Caida");  // registry order
  EXPECT_EQ(rows[1].graph->name, "Wiki-Talk");
}

TEST(Sweep, EmptySelectionMeansAllNineteen) {
  BenchOptions opt;
  opt.max_edges = 1'000;
  std::vector<AlgorithmEntry> algos = {all_algorithms()[1]};  // Polak only
  std::ostringstream progress;
  const auto rows = Engine(opt).sweep(algos, progress);
  EXPECT_EQ(rows.size(), 19u);
}

}  // namespace
}  // namespace tcgpu::framework
