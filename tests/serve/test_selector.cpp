#include "serve/selector.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "framework/registry.hpp"

namespace tcgpu::serve {
namespace {

/// Stats shaped like the small end of the suite (As-Caida at the default
/// cap): low degree, mild skew.
graph::GraphStats small_stats() {
  graph::GraphStats s;
  s.num_vertices = 15'548;
  s.num_undirected_edges = 43'000;
  s.avg_out_degree = 2.77;
  s.max_out_degree = 10;
  s.sum_out_degree_sq = 140'448;
  s.out_degree_skew = 3.6;
  return s;
}

/// Stats shaped like the dense end (Web-BerkStan at the default cap).
graph::GraphStats large_stats() {
  graph::GraphStats s;
  s.num_vertices = 8'172;
  s.num_undirected_edges = 100'000;
  s.avg_out_degree = 12.24;
  s.max_out_degree = 91;
  s.sum_out_degree_sq = 3'137'952;
  s.out_degree_skew = 7.4;
  return s;
}

TEST(SelectorModels, DefaultUniverseMatchesRegistry) {
  const auto models = Selector::default_models();
  const auto& algos = framework::pool_algorithms();
  ASSERT_EQ(models.size(), algos.size());
  for (std::size_t i = 0; i < models.size(); ++i) {
    EXPECT_EQ(models[i].name, algos[i].name);  // same names, same order
  }
}

TEST(SelectorScore, RanksEveryAlgorithmAscending) {
  Selector sel;
  const auto ranked = sel.score(small_stats());
  ASSERT_EQ(ranked.size(), Selector::default_models().size());
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_LE(ranked[i - 1].cost.modeled_ms, ranked[i].cost.modeled_ms);
  }
  for (const auto& c : ranked) {
    EXPECT_GT(c.cost.modeled_ms, 0.0);
    EXPECT_GT(c.cost.work, 0.0);
    EXPECT_GE(c.cost.launch_ms, 0.0);
  }
}

TEST(SelectorChoose, ReturnsArgminOfScore) {
  Selector sel;
  const auto ranked = sel.score(small_stats());
  const auto pick = sel.choose(small_stats());
  EXPECT_EQ(pick.algorithm, ranked.front().algorithm);
  EXPECT_DOUBLE_EQ(pick.cost.modeled_ms, ranked.front().cost.modeled_ms);
}

TEST(SelectorChoose, ThrowsOnAnEmptyModelList) {
  const Selector empty(std::vector<AlgoModel>{}, simt::GpuSpec::v100());
  EXPECT_TRUE(empty.score(small_stats()).empty());
  EXPECT_THROW(empty.choose(small_stats()), std::logic_error);
  const Selector one({{"H-INDEX", AlgoModel::Work::kHash, 1, 0.8, 0.1, 0.0, 1.0}},
                     simt::GpuSpec::v100());
  EXPECT_EQ(one.choose(small_stats()).algorithm, "H-INDEX");
}

TEST(SelectorModel, GroupTcTrustCrossover) {
  // The paper's headline matchup: TRUST's bucketed hash has the flatter
  // work curve but degrades with table load, GroupTC's chunked binary
  // search wins the small graphs. The model must reproduce the crossover.
  Selector sel;
  auto cost_of = [&](const char* name, const graph::GraphStats& st) {
    for (const auto& c : sel.score(st)) {
      if (c.algorithm == name) return c.cost.modeled_ms;
    }
    ADD_FAILURE() << name << " not scored";
    return 0.0;
  };
  EXPECT_LT(cost_of("GroupTC", small_stats()), cost_of("TRUST", small_stats()));
  EXPECT_LT(cost_of("TRUST", large_stats()), cost_of("GroupTC", large_stats()));
}

}  // namespace
}  // namespace tcgpu::serve
