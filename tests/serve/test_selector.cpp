#include "serve/selector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

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

TEST(SelectorSharded, OneDeviceIsAPassthrough) {
  Selector sel;
  const auto ranked = sel.score(large_stats());
  const auto& best = ranked.front();
  const auto pc = sel.sharded_cost(best.algorithm, best.cost, 1,
                                   large_stats(),
                                   simt::ClusterSpec::single_host(1));
  EXPECT_EQ(pc.devices, 1u);
  EXPECT_DOUBLE_EQ(pc.total_ms, best.cost.modeled_ms);
  EXPECT_DOUBLE_EQ(pc.comm_ms, 0.0);
}

TEST(SelectorSharded, KernelShrinksCommGrowsWithWidth) {
  Selector sel;
  const auto ranked = sel.score(large_stats());
  const auto& best = ranked.front();
  double prev_kernel = best.cost.modeled_ms;
  for (std::uint32_t k : {2u, 4u, 8u}) {
    const auto pc = sel.sharded_cost(best.algorithm, best.cost, k,
                                     large_stats(),
                                     simt::ClusterSpec::single_host(k));
    EXPECT_LT(pc.kernel_ms, prev_kernel) << k;  // sub-linear but monotone
    EXPECT_GT(pc.comm_ms, 0.0) << k;
    EXPECT_DOUBLE_EQ(pc.total_ms, pc.kernel_ms + pc.comm_ms) << k;
    prev_kernel = pc.kernel_ms;
  }
}

TEST(SelectorSharded, SlowerLinksCostMore) {
  Selector sel;
  const auto ranked = sel.score(large_stats());
  const auto& best = ranked.front();
  const auto nv = sel.sharded_cost(
      best.algorithm, best.cost, 4, large_stats(),
      simt::ClusterSpec::single_host(4, simt::InterconnectSpec::nvlink()));
  const auto pcie = sel.sharded_cost(
      best.algorithm, best.cost, 4, large_stats(),
      simt::ClusterSpec::single_host(4, simt::InterconnectSpec::pcie3()));
  EXPECT_GT(pcie.comm_ms, nv.comm_ms);
  EXPECT_DOUBLE_EQ(pcie.kernel_ms, nv.kernel_ms);  // the link moves only comm
}

/// The flat single-host sharding price, written out: an even 1/k work
/// split through the kernel's work exponent, E/k 4-byte ghost entries per
/// device as one message from each of its k - 1 peers, and a binomial count
/// all-reduce.
PlacementCost flat_sharded_cost(const Selector& sel, const Candidate& best,
                                std::uint32_t k,
                                const graph::GraphStats& stats,
                                const simt::InterconnectSpec& l) {
  PlacementCost pc;
  pc.devices = k;
  if (k == 1) {
    pc.kernel_ms = best.cost.modeled_ms;
    pc.total_ms = best.cost.modeled_ms;
    return pc;
  }
  double alpha = 0.7;
  for (const auto& m : sel.models()) {
    if (m.name == best.algorithm) alpha = m.work_exponent;
  }
  const double kd = static_cast<double>(k);
  pc.kernel_ms =
      std::max(0.0, best.cost.modeled_ms - best.cost.launch_ms) /
          std::pow(kd, alpha) +
      best.cost.launch_ms;
  const auto ghost = static_cast<std::uint64_t>(
      4.0 * static_cast<double>(stats.num_undirected_edges) / kd);
  std::uint32_t steps = 0;
  for (std::uint32_t span = 1; span < k; span <<= 1) ++steps;
  pc.comm_ms =
      static_cast<double>(k - 1) * l.latency_us * 1e-3 +
      static_cast<double>(ghost) / (l.peer_bandwidth_gbps * 1e9) * 1e3 +
      2.0 * steps *
          (l.latency_us * 1e-3 + static_cast<double>(sizeof(std::uint64_t)) /
                                     (l.peer_bandwidth_gbps * 1e9) * 1e3);
  pc.total_ms = pc.kernel_ms + pc.comm_ms;
  return pc;
}

TEST(SelectorShardedCluster, WidthFittingOneHostMatchesFlatPricing) {
  // A shard set that never leaves its host pays only the intra link, at
  // exactly the flat single-host price, field for field.
  Selector sel;
  const auto ranked = sel.score(large_stats());
  const auto& best = ranked.front();
  for (const auto& link :
       {simt::InterconnectSpec::nvlink(), simt::InterconnectSpec::pcie3()}) {
    simt::ClusterSpec cluster = simt::ClusterSpec::ethernet(2, 4);
    cluster.host.intra = link;
    for (std::uint32_t k : {1u, 2u, 4u}) {
      const auto flat =
          flat_sharded_cost(sel, best, k, large_stats(), cluster.host.intra);
      const auto two = sel.sharded_cost(best.algorithm, best.cost, k,
                                        large_stats(), cluster);
      EXPECT_EQ(two.hosts, 1u) << k;
      EXPECT_EQ(two.devices, flat.devices) << k;
      EXPECT_EQ(two.kernel_ms, flat.kernel_ms) << link.name << " x" << k;
      EXPECT_EQ(two.comm_ms, flat.comm_ms) << link.name << " x" << k;
      EXPECT_EQ(two.total_ms, flat.total_ms) << link.name << " x" << k;
    }
  }
}

TEST(SelectorShardedCluster, CrossingHostsCostsMoreThanStayingIntra) {
  // Width 4 over 2x2 hosts rides the network for half its peers; the same
  // width inside one NVLink host does not. Kernel time is width-only.
  Selector sel;
  const auto ranked = sel.score(large_stats());
  const auto& best = ranked.front();
  const auto split = simt::ClusterSpec::ethernet(2, 2);
  const auto whole = simt::ClusterSpec::single_host(4);
  const auto cross =
      sel.sharded_cost(best.algorithm, best.cost, 4, large_stats(), split);
  const auto intra =
      sel.sharded_cost(best.algorithm, best.cost, 4, large_stats(), whole);
  EXPECT_EQ(cross.hosts, 2u);
  EXPECT_EQ(intra.hosts, 1u);
  EXPECT_DOUBLE_EQ(cross.kernel_ms, intra.kernel_ms);
  EXPECT_GT(cross.comm_ms, intra.comm_ms);
  EXPECT_GT(cross.total_ms, intra.total_ms);
}

TEST(SelectorShardedCluster, RejectsWidthsBeyondTheCluster) {
  Selector sel;
  const auto ranked = sel.score(large_stats());
  const auto& best = ranked.front();
  const auto cluster = simt::ClusterSpec::ethernet(2, 2);  // 4 devices
  EXPECT_THROW(sel.sharded_cost(best.algorithm, best.cost, 8, large_stats(),
                                cluster),
               std::invalid_argument);
}

}  // namespace
}  // namespace tcgpu::serve
