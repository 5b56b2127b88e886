// fleet::Placer on prepared graphs: every width is priced on the partition
// and cluster shape the sharded run will use, so the predicted comm time is
// the run's, bit for bit.
#include "fleet/placer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "dist/runner.hpp"
#include "fleet/fleet.hpp"
#include "serve/service.hpp"

namespace tcgpu::fleet {
namespace {

framework::Engine::Config small_engine() {
  framework::Engine::Config cfg;
  cfg.max_edges = 2'000;
  cfg.seed = 42;
  return cfg;
}

/// A link so fast that every width prices its comm at (nearly) nothing.
simt::InterconnectSpec free_link() {
  simt::InterconnectSpec net;
  net.name = "test-free";
  net.peer_bandwidth_gbps = 1e9;
  net.latency_us = 0.0;
  return net;
}

/// A placer config where every width is admissible: `hosts` hosts sharing
/// `devices` devices, all on a free link, no bars.
Placer::Config open_placer(std::uint32_t devices, std::uint32_t hosts = 1) {
  Placer::Config pc;
  pc.cluster.hosts = hosts;
  pc.cluster.host.devices = devices / hosts;
  pc.cluster.host.intra = free_link();
  pc.shard_min_kernel_ms = 0.0;
  pc.min_speedup = 1.0;
  return pc;
}

Placer::Config on(const simt::ClusterSpec& cluster) {
  Placer::Config pc;
  pc.cluster = cluster;
  return pc;
}

/// What the fleet's sharded path runs for a width-`k` placement.
dist::MultiRunResult run_sharded(framework::Engine& engine,
                                 const simt::ClusterSpec& cluster,
                                 std::uint32_t k, const std::string& algorithm,
                                 const framework::Engine::GraphHandle& graph) {
  dist::MultiDeviceRunner runner(
      engine, {dist::shard_shape(cluster, k).value(), kShardStrategy,
               /*measure_baseline=*/false});
  return runner.run(algorithm, graph);
}

// --- one formula: predicted comm is realized comm ----------------------------

TEST(PlacerPricing, PredictedCommIsTheShardedRunsCommBitForBit) {
  // A 4-device NVLink fleet, and 8 devices over 2 InfiniBand hosts: every
  // width, priced before any kernel runs, carries the comm time the sharded
  // run then reports.
  framework::Engine engine(small_engine());
  const serve::Selector sel(engine.config().spec);
  for (const auto& cluster : {simt::ClusterSpec::single_host(4),
                              simt::ClusterSpec::infiniband(2, 4)}) {
    const Placer placer(engine, sel, on(cluster));
    for (const std::string name : {"As-Caida", "Com-Orkut"}) {
      const auto graph = engine.prepare(name);
      const serve::Candidate pick = sel.choose(graph->stats);
      for (std::uint32_t k = 2; k <= cluster.num_devices(); k *= 2) {
        const Placement predicted = placer.price(pick, graph->dag, k);
        const dist::MultiRunResult run =
            run_sharded(engine, cluster, k, pick.algorithm, graph);
        ASSERT_TRUE(run.valid) << name << " x" << k;
        EXPECT_GT(run.comm_ms, 0.0) << name << " x" << k;
        EXPECT_EQ(predicted.comm_ms, run.comm_ms)
            << name << " x" << k << " on " << cluster.hosts << " hosts";
        EXPECT_EQ(predicted.hosts, run.hosts) << name << " x" << k;
      }
    }
  }
}

TEST(PlacerPricing, WidthIsPricedOnTheShapeItRuns) {
  // 6 devices over 2 hosts, 3 per host: width 4 runs on the fewest
  // power-of-two hosts that hold it, split evenly — 2 hosts x 2 devices,
  // not a 3 + 1 fill of the first host — and is priced on exactly that.
  framework::Engine engine(small_engine());
  const serve::Selector sel(engine.config().spec);
  const simt::ClusterSpec cluster = simt::ClusterSpec::infiniband(2, 3);
  const auto graph = engine.prepare("Com-Orkut");
  const serve::Candidate pick = sel.choose(graph->stats);

  const Placement four = Placer(engine, sel, on(cluster)).price(
      pick, graph->dag, 4);
  EXPECT_EQ(four.hosts, 2u);
  EXPECT_EQ(four.describe(), "shard4:range:2h");
  dist::MultiDeviceRunner two_by_two(
      engine, {simt::ClusterSpec::infiniband(2, 2), kShardStrategy,
               /*measure_baseline=*/false});
  EXPECT_EQ(four.comm_ms, two_by_two.run(pick.algorithm, graph).comm_ms);
}

// --- how widths, links and hosts move the price -----------------------------

TEST(PlacerPricing, OneDeviceIsThePicksScore) {
  framework::Engine engine(small_engine());
  const serve::Selector sel(engine.config().spec);
  const auto graph = engine.prepare("Com-Orkut");
  const serve::Candidate pick = sel.choose(graph->stats);
  const Placement one =
      Placer(engine, sel, on(simt::ClusterSpec::single_host(4)))
          .price(pick, graph->dag, 1);
  EXPECT_FALSE(one.sharded);
  EXPECT_EQ(one.describe(), "single");
  EXPECT_EQ(one.total_ms, pick.cost.modeled_ms);
  EXPECT_EQ(one.comm_ms, 0.0);
}

TEST(PlacerPricing, KernelShrinksAndCommGrowsWithWidth) {
  framework::Engine engine(small_engine());
  const serve::Selector sel(engine.config().spec);
  const auto graph = engine.prepare("Com-Orkut");
  const serve::Candidate pick = sel.choose(graph->stats);
  const Placer placer(engine, sel, on(simt::ClusterSpec::single_host(8)));
  double prev_kernel = pick.cost.modeled_ms;
  double prev_comm = 0.0;
  for (std::uint32_t k : {2u, 4u, 8u}) {
    const Placement p = placer.price(pick, graph->dag, k);
    EXPECT_LT(p.kernel_ms, prev_kernel) << k;  // sub-linear but monotone
    EXPECT_GT(p.comm_ms, prev_comm) << k;
    EXPECT_GE(p.total_ms, p.kernel_ms) << k;
    prev_kernel = p.kernel_ms;
    prev_comm = p.comm_ms;
  }
}

TEST(PlacerPricing, SlowerLinksCostMore) {
  framework::Engine engine(small_engine());
  const serve::Selector sel(engine.config().spec);
  const auto graph = engine.prepare("Com-Orkut");
  const serve::Candidate pick = sel.choose(graph->stats);
  const Placement nv =
      Placer(engine, sel,
             on(simt::ClusterSpec::single_host(
                 4, simt::InterconnectSpec::nvlink())))
          .price(pick, graph->dag, 4);
  const Placement pcie =
      Placer(engine, sel,
             on(simt::ClusterSpec::single_host(
                 4, simt::InterconnectSpec::pcie3())))
          .price(pick, graph->dag, 4);
  EXPECT_GT(pcie.comm_ms, nv.comm_ms);
  EXPECT_EQ(pcie.kernel_ms, nv.kernel_ms);  // the link moves only comm
}

TEST(PlacerPricing, WidthFittingOneHostPricesAsOneHost) {
  // A width that never leaves its host pays only the intra link: on a
  // 2 x 4 cluster it prices exactly as on one 4-device host.
  framework::Engine engine(small_engine());
  const serve::Selector sel(engine.config().spec);
  const auto graph = engine.prepare("Com-Orkut");
  const serve::Candidate pick = sel.choose(graph->stats);
  const Placer split(engine, sel, on(simt::ClusterSpec::ethernet(2, 4)));
  const Placer whole(engine, sel, on(simt::ClusterSpec::single_host(4)));
  for (std::uint32_t k : {2u, 4u}) {
    const Placement two = split.price(pick, graph->dag, k);
    const Placement one = whole.price(pick, graph->dag, k);
    EXPECT_EQ(two.hosts, 1u) << k;
    EXPECT_EQ(two.comm_ms, one.comm_ms) << k;
    EXPECT_EQ(two.total_ms, one.total_ms) << k;
  }
}

TEST(PlacerPricing, CrossingHostsCostsMoreThanStayingIntra) {
  // Width 4 over 2 x 2 hosts rides the network; the same width inside one
  // NVLink host does not. Kernel time is width-only.
  framework::Engine engine(small_engine());
  const serve::Selector sel(engine.config().spec);
  const auto graph = engine.prepare("Com-Orkut");
  const serve::Candidate pick = sel.choose(graph->stats);
  const Placement cross =
      Placer(engine, sel, on(simt::ClusterSpec::ethernet(2, 2)))
          .price(pick, graph->dag, 4);
  const Placement intra =
      Placer(engine, sel, on(simt::ClusterSpec::single_host(4)))
          .price(pick, graph->dag, 4);
  EXPECT_EQ(cross.hosts, 2u);
  EXPECT_EQ(intra.hosts, 1u);
  EXPECT_EQ(cross.kernel_ms, intra.kernel_ms);
  EXPECT_GT(cross.comm_ms, intra.comm_ms);
  EXPECT_GT(cross.total_ms, intra.total_ms);
}

TEST(PlacerPricing, RejectsWidthsTheClusterCannotRun) {
  framework::Engine engine(small_engine());
  const serve::Selector sel(engine.config().spec);
  const auto graph = engine.prepare("As-Caida");
  const serve::Candidate pick = sel.choose(graph->stats);
  const Placer placer(engine, sel, on(simt::ClusterSpec::ethernet(2, 2)));
  EXPECT_THROW(placer.price(pick, graph->dag, 8), std::invalid_argument);
  serve::Candidate outside = pick;
  outside.algorithm = "GroupTC-H";  // registered, but outside the pool
  EXPECT_THROW(placer.price(outside, graph->dag, 2), std::invalid_argument);
}

// --- cluster placement on a prepared graph ----------------------------------

TEST(PlacerCluster, SlowInterHostLinkKeepsPlacementsWithinAHost) {
  framework::Engine engine(small_engine());
  const serve::Selector sel(engine.config().spec);
  const auto graph = engine.prepare("Web-BerkStan");
  const serve::Candidate pick = sel.choose(graph->stats);

  const Placement flat =
      Placer(engine, sel, open_placer(8)).decide(pick, graph->dag);
  EXPECT_EQ(flat.shards, 8u);  // free flat link: widest width wins

  // Same fleet split 2 x 4 behind a dreadful network: widths that fit one
  // host still price on the free intra link, width 8 pays the inter link —
  // the placer stops at the host boundary.
  Placer::Config cc = open_placer(8, 2);
  cc.cluster.inter.name = "test-molasses";
  cc.cluster.inter.peer_bandwidth_gbps = 1e-6;
  cc.cluster.inter.latency_us = 1e6;
  const Placement within = Placer(engine, sel, cc).decide(pick, graph->dag);
  EXPECT_TRUE(within.sharded);
  EXPECT_EQ(within.shards, 4u);
  EXPECT_EQ(within.hosts, 1u);
  EXPECT_EQ(within.describe(), "shard4:range");  // no host suffix intra-host
}

TEST(PlacerCluster, FastInterLinkGoesWideAndLabelsTheHosts) {
  framework::Engine engine(small_engine());
  const serve::Selector sel(engine.config().spec);
  const auto graph = engine.prepare("Web-BerkStan");
  Placer::Config cc = open_placer(8, 2);
  cc.cluster.inter = free_link();  // crossing hosts costs nothing
  const Placement wide = Placer(engine, sel, cc)
                             .decide(sel.choose(graph->stats), graph->dag);
  EXPECT_TRUE(wide.sharded);
  EXPECT_EQ(wide.shards, 8u);
  EXPECT_EQ(wide.hosts, 2u);
  EXPECT_EQ(wide.describe(), "shard8:range:2h");
}

// --- the fleet reports the prediction next to the run ------------------------

TEST(FleetPlacement, ReplyCarriesPredictedNextToRealized) {
  framework::Engine engine(small_engine());
  Fleet::Config fc;
  fc.devices = 4;
  fc.shard_min_kernel_ms = 0.0;
  fc.min_speedup = 1.0;
  fc.interconnect = free_link();
  Fleet fleet(engine, fc);
  serve::QueryService service(engine, fleet, serve::QueryService::Config{});

  serve::QueryRequest req;
  req.dataset = "Com-Orkut";
  const auto reply = service.submit(std::move(req)).get();
  ASSERT_EQ(reply.status, serve::QueryStatus::kOk);
  ASSERT_TRUE(reply.sharded);
  EXPECT_TRUE(reply.valid);

  const auto graph = engine.prepare("Com-Orkut");
  const serve::Selector sel(engine.config().spec);
  const serve::Candidate pick = sel.choose(graph->stats);
  Placer::Config pc;
  pc.cluster = simt::ClusterSpec::single_host(4, free_link());
  const Placement predicted =
      Placer(engine, sel, pc).price(pick, graph->dag, reply.devices);
  EXPECT_EQ(reply.predicted_ms, predicted.total_ms);
  EXPECT_EQ(reply.comm_ms, predicted.comm_ms);
  const dist::MultiRunResult run = run_sharded(
      engine, pc.cluster, reply.devices, reply.algorithm, graph);
  EXPECT_EQ(reply.realized_ms, run.total_ms);
  // The shards' summed kernel time stays in `stats`; the wall time is the
  // overlapped pipeline.
  EXPECT_EQ(reply.stats, run.combined);
  EXPECT_LT(reply.realized_ms, reply.stats.time_ms);

  // One device: predicted is the pick's score, realized the kernel's time.
  Fleet one(engine, Fleet::Config{});
  serve::QueryService plain(engine, one, serve::QueryService::Config{});
  serve::QueryRequest again;
  again.dataset = "As-Caida";
  const auto single = plain.submit(std::move(again)).get();
  ASSERT_EQ(single.status, serve::QueryStatus::kOk);
  EXPECT_EQ(single.predicted_ms, single.modeled.modeled_ms);
  EXPECT_EQ(single.realized_ms, single.stats.time_ms);
}

}  // namespace
}  // namespace tcgpu::fleet
