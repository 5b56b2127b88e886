#include "gen/paper_datasets.hpp"

#include <gtest/gtest.h>

#include "graph/prepare.hpp"
#include "graph/stats.hpp"

namespace tcgpu::gen {
namespace {

TEST(PaperDatasets, HasAllNineteenInEdgeOrder) {
  const auto all = paper_datasets();
  ASSERT_EQ(all.size(), 19u);
  EXPECT_EQ(all.front().name, "As-Caida");
  EXPECT_EQ(all.back().name, "Com-Friendster");
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LE(all[i - 1].paper_edges, all[i].paper_edges) << all[i].name;
  }
}

TEST(PaperDatasets, TableTwoSpotChecks) {
  const auto& caida = dataset_by_name("As-Caida");
  EXPECT_EQ(caida.paper_vertices, 16'000u);
  EXPECT_EQ(caida.paper_edges, 43'000u);
  const auto& twitter = dataset_by_name("Twitter");
  EXPECT_EQ(twitter.paper_edges, 1'200'000'000u);
  EXPECT_EQ(dataset_by_name("RoadNet-CA").family, Family::kRoad);
}

TEST(PaperDatasets, LookupThrowsOnUnknownName) {
  EXPECT_THROW(dataset_by_name("Nope"), std::out_of_range);
}

TEST(PaperDatasets, ScaleIsOneBelowCapAndProportionalAbove) {
  const auto& caida = dataset_by_name("As-Caida");
  EXPECT_DOUBLE_EQ(dataset_scale(caida, 100'000), 1.0);
  EXPECT_DOUBLE_EQ(dataset_scale(caida, 0), 1.0);  // 0 = uncapped
  const auto& orkut = dataset_by_name("Com-Orkut");
  EXPECT_NEAR(dataset_scale(orkut, 117'000), 0.001, 1e-6);
}

TEST(PaperDatasets, GenerationRespectsEdgeCap) {
  for (const auto& ds : paper_datasets()) {
    const auto raw = generate_dataset(ds, 50'000, 1);
    const auto clean = graph::clean_edges(raw);
    EXPECT_LE(clean.edges.size(), 55'000u) << ds.name;  // small cleaning slack
    EXPECT_GE(clean.edges.size(), 20'000u) << ds.name;
  }
}

TEST(PaperDatasets, UncappedSmallDatasetMatchesTableTwo) {
  const auto& caida = dataset_by_name("As-Caida");
  const auto stats = graph::compute_stats(
      graph::build_undirected_csr(graph::clean_edges(generate_dataset(caida, 0, 1))));
  EXPECT_NEAR(static_cast<double>(stats.num_undirected_edges), 43'000.0, 4300.0);
  EXPECT_NEAR(static_cast<double>(stats.num_vertices), 16'000.0, 4000.0);
  EXPECT_NEAR(stats.avg_degree, 5.2, 1.5);
}

TEST(PaperDatasets, CappedDatasetsOfSameFamilyAreDistinct) {
  // Regression: same family + same cap must not collapse to one graph.
  const auto a = generate_dataset(dataset_by_name("Com-Lj"), 50'000, 1);
  const auto b = generate_dataset(dataset_by_name("Soc-LiveJ"), 50'000, 1);
  EXPECT_NE(a.edges, b.edges);
}

TEST(PaperDatasets, GenerationIsSeedDeterministic) {
  const auto a = generate_dataset(dataset_by_name("Wiki-Talk"), 50'000, 3);
  const auto b = generate_dataset(dataset_by_name("Wiki-Talk"), 50'000, 3);
  EXPECT_EQ(a.edges, b.edges);
}

TEST(PaperDatasets, DegreeOrderingSurvivesTheCap) {
  // The x-axis story of Figures 11-15: low-degree road vs high-degree
  // social keeps its ordering under a uniform cap.
  const auto road = graph::compute_stats(graph::build_undirected_csr(
      graph::clean_edges(generate_dataset(dataset_by_name("RoadNet-CA"), 60'000, 1))));
  const auto orkut = graph::compute_stats(graph::build_undirected_csr(
      graph::clean_edges(generate_dataset(dataset_by_name("Com-Orkut"), 60'000, 1))));
  EXPECT_LT(road.avg_degree, 4.0);
  EXPECT_GT(orkut.avg_degree, 20.0);
}

TEST(PaperDatasets, FamilyNamesRoundTrip) {
  EXPECT_STREQ(to_string(Family::kRoad), "road");
  EXPECT_STREQ(to_string(Family::kSocial), "social");
  EXPECT_STREQ(to_string(Family::kCommunication), "communication");
}

}  // namespace
}  // namespace tcgpu::gen
