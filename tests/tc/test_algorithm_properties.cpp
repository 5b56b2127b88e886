// Property-style invariants that must hold for every algorithm.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <utility>

#include "framework/registry.hpp"
#include "framework/runner.hpp"
#include "gen/rmat.hpp"
#include "graph/prepare.hpp"

namespace tcgpu::tc {
namespace {

graph::Coo base_graph(std::uint64_t seed = 77) {
  gen::RmatParams p;
  p.scale = 10;
  p.edges = 8000;
  return gen::generate_rmat(p, seed);
}

class EveryAlgorithm : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryAlgorithm, CountIsInvariantUnderVertexRelabeling) {
  const graph::Coo original = base_graph();
  graph::Coo relabeled = original;
  std::vector<graph::VertexId> perm(original.num_vertices);
  std::iota(perm.begin(), perm.end(), graph::VertexId{0});
  std::mt19937_64 rng(5);
  std::shuffle(perm.begin(), perm.end(), rng);
  for (auto& [u, v] : relabeled.edges) {
    u = perm[u];
    v = perm[v];
  }

  const auto algo = framework::make_algorithm(GetParam());
  const auto a = framework::run_algorithm(
      *algo, framework::prepare_graph("orig", original), simt::GpuSpec::v100());
  const auto b = framework::run_algorithm(
      *algo, framework::prepare_graph("perm", relabeled), simt::GpuSpec::v100());
  EXPECT_TRUE(a.valid);
  EXPECT_TRUE(b.valid);
  EXPECT_EQ(a.result.triangles, b.result.triangles);
}

TEST_P(EveryAlgorithm, CountIsInvariantUnderOrientationPolicy) {
  // Kernels must count any u < v DAG, not only a degree-ordered one: a
  // streamed snapshot hands them an id-oriented DAG once it mutates.
  const framework::PreparedGraph by_degree =
      framework::prepare_graph("g", base_graph());
  const graph::Coo clean = graph::clean_edges(base_graph());
  std::vector<graph::VertexId> perm(clean.num_vertices);
  std::iota(perm.begin(), perm.end(), graph::VertexId{0});
  std::shuffle(perm.begin(), perm.end(), std::mt19937_64(5));
  std::vector<graph::Edge> shuffled;
  for (const auto& [u, v] : clean.edges) {
    shuffled.emplace_back(std::min(perm[u], perm[v]), std::max(perm[u], perm[v]));
  }

  const auto algo = framework::make_algorithm(GetParam());
  for (const auto& [label, dag] :
       {std::pair{"degree", by_degree.dag},
        std::pair{"id", graph::build_directed_csr(clean.num_vertices, clean.edges)},
        std::pair{"random", graph::build_directed_csr(clean.num_vertices, shuffled)}}) {
    framework::PreparedGraph pg = by_degree;
    pg.dag = dag;
    const auto out = framework::run_algorithm(*algo, pg, simt::GpuSpec::v100());
    EXPECT_EQ(out.result.triangles, by_degree.reference_triangles) << label;
  }
}

TEST_P(EveryAlgorithm, RunsAreFullyDeterministic) {
  const auto pg = framework::prepare_graph("g", base_graph());
  const auto algo = framework::make_algorithm(GetParam());
  const auto a = framework::run_algorithm(*algo, pg, simt::GpuSpec::v100());
  const auto b = framework::run_algorithm(*algo, pg, simt::GpuSpec::v100());
  EXPECT_EQ(a.result.triangles, b.result.triangles);
  EXPECT_EQ(a.result.total.metrics.global_load_requests,
            b.result.total.metrics.global_load_requests);
  EXPECT_EQ(a.result.total.metrics.global_load_transactions,
            b.result.total.metrics.global_load_transactions);
  EXPECT_EQ(a.result.total.metrics.warp_steps, b.result.total.metrics.warp_steps);
  EXPECT_DOUBLE_EQ(a.result.total.time_ms, b.result.total.time_ms);
}

TEST_P(EveryAlgorithm, DisjointUnionCountsAdd) {
  // Triangles of G1 ⊔ G2 = triangles(G1) + triangles(G2).
  const graph::Coo g1 = base_graph(101);
  const graph::Coo g2 = base_graph(202);
  graph::Coo both;
  both.num_vertices = g1.num_vertices + g2.num_vertices;
  both.edges = g1.edges;
  for (const auto& [u, v] : g2.edges) {
    both.edges.push_back({u + g1.num_vertices, v + g1.num_vertices});
  }
  const auto algo = framework::make_algorithm(GetParam());
  const auto a = framework::run_algorithm(
      *algo, framework::prepare_graph("g1", g1), simt::GpuSpec::v100());
  const auto b = framework::run_algorithm(
      *algo, framework::prepare_graph("g2", g2), simt::GpuSpec::v100());
  const auto ab = framework::run_algorithm(
      *algo, framework::prepare_graph("g1+g2", both), simt::GpuSpec::v100());
  EXPECT_EQ(ab.result.triangles, a.result.triangles + b.result.triangles);
}

TEST_P(EveryAlgorithm, ReportsAtLeastOneLaunchWithWork) {
  const auto pg = framework::prepare_graph("g", base_graph());
  const auto out = framework::run_algorithm(*framework::make_algorithm(GetParam()),
                                            pg, simt::GpuSpec::v100());
  ASSERT_FALSE(out.result.launches.empty());
  EXPECT_GT(out.result.total.metrics.global_load_requests, 0u);
  EXPECT_GT(out.result.total.metrics.warps_launched, 0u);
  EXPECT_GT(out.result.total.time_ms, 0.0);
  const double eff = out.result.total.metrics.warp_execution_efficiency();
  EXPECT_GT(eff, 0.0);
  EXPECT_LE(eff, 1.0);
}

std::vector<std::string> names() {
  std::vector<std::string> v;
  for (const auto& e : framework::extended_algorithms()) v.push_back(e.name);
  return v;
}

INSTANTIATE_TEST_SUITE_P(All, EveryAlgorithm, ::testing::ValuesIn(names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace tcgpu::tc
