#include "fleet/fleet.hpp"

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/service.hpp"
#include "gen/er.hpp"
#include "serve/selector.hpp"
#include "serve/service.hpp"

namespace tcgpu::fleet {
namespace {

framework::Engine::Config small_engine() {
  framework::Engine::Config cfg;
  cfg.max_edges = 2'000;
  cfg.seed = 42;
  return cfg;
}

serve::QueryRequest dataset_query(std::string name) {
  serve::QueryRequest req;
  req.dataset = std::move(name);
  return req;
}

/// An interconnect so fast that sharding always models as a win — lets the
/// tiny test graphs exercise the sharded path deterministically.
simt::InterconnectSpec free_link() {
  simt::InterconnectSpec net;
  net.name = "test-free";
  net.peer_bandwidth_gbps = 1e9;
  net.latency_us = 0.0;
  return net;
}

// --- M=1: a served reply is one plain engine run ----------------------------

TEST(FleetIdentity, SingleDeviceReplyMatchesDirectEngineRun) {
  framework::Engine engine(small_engine());
  serve::QueryService service(engine);  // its own one-device fleet
  framework::Engine direct(small_engine());
  const serve::Selector apriori(direct.config().spec);

  for (const std::string name : {"As-Caida", "Email-EuAll", "P2p-Gnutella31"}) {
    const auto reply = service.submit(dataset_query(name)).get();
    ASSERT_EQ(reply.status, serve::QueryStatus::kOk) << name;
    const auto pg = direct.prepare(name);
    // The pick is the selector's a-priori choice for the graph...
    const auto pick = apriori.choose(pg->stats);
    EXPECT_EQ(reply.algorithm, pick.algorithm) << name;
    EXPECT_EQ(reply.modeled.modeled_ms, pick.cost.modeled_ms) << name;
    // ...and the count and simulated KernelStats are those of one plain
    // Engine::run of it, bit for bit.
    const auto run = direct.run(reply.algorithm, pg);
    EXPECT_EQ(reply.triangles, run.result.triangles) << name;
    EXPECT_EQ(reply.stats, run.result.total) << name;
    EXPECT_TRUE(reply.valid) << name;
    EXPECT_FALSE(reply.sharded) << name;
    EXPECT_EQ(reply.placement, "single") << name;
  }
}

// --- placement --------------------------------------------------------------

TEST(FleetPlacement, TableIsDeterministicAcrossWorkerCounts) {
  const std::vector<std::string> datasets = {"As-Caida", "Email-EuAll",
                                             "Com-Dblp"};
  std::vector<std::vector<std::pair<std::string, std::string>>> tables;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    framework::Engine engine(small_engine());
    Fleet::Config fc;
    fc.devices = 4;
    fc.shard_min_kernel_ms = 0.0;
    fc.interconnect = free_link();
    Fleet fleet(engine, fc);
    serve::QueryService::Config sc;
    sc.workers = workers;
    serve::QueryService service(engine, fleet, sc);
    // Concurrent submissions; placement must not depend on arrival order.
    std::vector<std::future<serve::QueryReply>> futures;
    for (int round = 0; round < 3; ++round) {
      for (const auto& name : datasets) {
        futures.push_back(service.submit(dataset_query(name)));
      }
    }
    for (auto& f : futures) EXPECT_EQ(f.get().status, serve::QueryStatus::kOk);
    tables.push_back(fleet.placement_table());
  }
  EXPECT_EQ(tables[0], tables[1]);
  EXPECT_EQ(tables[0], tables[2]);
}

TEST(FleetPlacement, ShardedRunCountsExactly) {
  framework::Engine engine(small_engine());
  Fleet::Config fc;
  fc.devices = 4;
  fc.shard_min_kernel_ms = 0.0;
  fc.min_speedup = 1.0;
  fc.interconnect = free_link();
  Fleet fleet(engine, fc);
  serve::QueryService service(engine, fleet, serve::QueryService::Config{});

  const auto reply = service.submit(dataset_query("As-Caida")).get();
  ASSERT_EQ(reply.status, serve::QueryStatus::kOk);
  EXPECT_TRUE(reply.sharded);
  EXPECT_GT(reply.devices, 1u);
  EXPECT_TRUE(reply.valid);
  EXPECT_EQ(reply.triangles,
            engine.prepare("As-Caida")->reference_triangles);
  EXPECT_EQ(reply.placement.rfind("shard", 0), 0u) << reply.placement;
  EXPECT_EQ(fleet.counters().sharded_runs, 1u);

  // The shard kernel time was charged to the participating slots.
  double busy = 0.0;
  std::uint64_t runs = 0;
  for (const auto& slot : fleet.slots()) {
    busy += slot.busy_ms;
    runs += slot.runs;
  }
  EXPECT_GT(busy, 0.0);
  EXPECT_EQ(runs, reply.devices);
}

TEST(FleetPlacement, ForcedKernelQueriesDoNotUnpricePlacement) {
  // An unknown kernel name must be rejected before the fleet and leave no
  // placement behind, and a forced pool kernel reports its model score.
  framework::Engine engine(small_engine());
  Fleet::Config fc;
  fc.devices = 4;
  fc.shard_min_kernel_ms = 0.0;
  fc.min_speedup = 1.0;
  fc.interconnect = free_link();
  Fleet fleet(engine, fc);
  serve::QueryService service(engine, fleet, serve::QueryService::Config{});

  auto typo = dataset_query("As-Caida");
  typo.algorithm = "Polka";
  const auto rejected = service.submit(std::move(typo)).get();
  EXPECT_EQ(rejected.status, serve::QueryStatus::kInvalidRequest);
  EXPECT_NE(rejected.error.find("unknown algorithm 'Polka' (valid: "),
            std::string::npos)
      << rejected.error;
  EXPECT_TRUE(fleet.placement_table().empty());
  const auto after_typo = service.submit(dataset_query("As-Caida")).get();
  ASSERT_EQ(after_typo.status, serve::QueryStatus::kOk);
  EXPECT_TRUE(after_typo.sharded) << after_typo.placement;

  auto polak = dataset_query("Email-EuAll");
  polak.algorithm = "Polak";
  const auto forced = service.submit(std::move(polak)).get();
  ASSERT_EQ(forced.status, serve::QueryStatus::kOk);
  EXPECT_FALSE(forced.selected);
  EXPECT_GT(forced.modeled.modeled_ms, 0.0);
  EXPECT_TRUE(forced.sharded) << forced.placement;
  const auto after_forced = service.submit(dataset_query("Email-EuAll")).get();
  ASSERT_EQ(after_forced.status, serve::QueryStatus::kOk);
  EXPECT_TRUE(after_forced.sharded) << after_forced.placement;
}

TEST(FleetPlacement, ForcedUnpricedKernelDoesNotSetThePlacement) {
  // GroupTC-H is outside the selector's pool, so it has no model score. A
  // placement is priced from the selector's pick for the graph version,
  // whichever kernel comes first: the forced query and the auto query
  // after it both run on the placement an auto query alone would get.
  framework::Engine engine(small_engine());
  Fleet::Config fc;
  fc.devices = 4;
  fc.shard_min_kernel_ms = 0.0;
  fc.min_speedup = 1.0;
  fc.interconnect = free_link();
  Fleet fleet(engine, fc);
  serve::QueryService service(engine, fleet, serve::QueryService::Config{});

  auto hashed = dataset_query("Email-EuAll");
  hashed.algorithm = "GroupTC-H";
  const auto forced = service.submit(std::move(hashed)).get();
  ASSERT_EQ(forced.status, serve::QueryStatus::kOk);
  EXPECT_EQ(forced.modeled.modeled_ms, 0.0);
  EXPECT_EQ(forced.placement, "shard4:range");
  const auto after = service.submit(dataset_query("Email-EuAll")).get();
  ASSERT_EQ(after.status, serve::QueryStatus::kOk);
  EXPECT_EQ(after.algorithm, "Polak");
  EXPECT_EQ(after.placement, "shard4:range");
  EXPECT_TRUE(after.valid);
}

TEST(FleetPlacement, TinyKernelsStaySingle) {
  framework::Engine engine(small_engine());
  Fleet::Config fc;
  fc.devices = 8;  // plenty of peers, but nothing clears the admission bar
  Fleet fleet(engine, fc);
  serve::QueryService service(engine, fleet, serve::QueryService::Config{});
  const auto reply = service.submit(dataset_query("As-Caida")).get();
  ASSERT_EQ(reply.status, serve::QueryStatus::kOk);
  EXPECT_FALSE(reply.sharded);
  EXPECT_EQ(reply.placement, "single");
}

// --- fleet topology ---------------------------------------------------------

TEST(FleetConfigTest, HostsMustDivideDevices) {
  framework::Engine engine(small_engine());
  Fleet::Config fc;
  fc.devices = 4;
  fc.hosts = 3;
  EXPECT_THROW(Fleet(engine, fc), std::invalid_argument);
  fc.hosts = 0;
  EXPECT_THROW(Fleet(engine, fc), std::invalid_argument);
  fc.hosts = 2;
  EXPECT_NO_THROW(Fleet(engine, fc));
}

TEST(FleetPlacement, TableIsLoadBlind) {
  // Fleets latch the same placement table no matter how much (or how
  // unevenly) traffic preceded each decision — the contract the CI
  // placement pins rely on. Run the same datasets through two fleets with
  // very different traffic histories and compare tables.
  const std::vector<std::string> datasets = {"As-Caida", "Email-EuAll",
                                             "Com-Dblp"};
  auto make_config = [] {
    Fleet::Config fc;
    fc.devices = 4;
    fc.shard_min_kernel_ms = 0.0;
    fc.min_speedup = 1.0;
    fc.interconnect = free_link();
    fc.result_cache = false;  // every repeat runs a kernel and charges slots
    return fc;
  };

  framework::Engine cold_engine(small_engine());
  Fleet cold(cold_engine, make_config());
  serve::QueryService cold_service(cold_engine, cold,
                                   serve::QueryService::Config{});
  for (const auto& name : datasets) {
    ASSERT_EQ(cold_service.submit(dataset_query(name)).get().status,
              serve::QueryStatus::kOk);
  }

  framework::Engine hot_engine(small_engine());
  Fleet hot(hot_engine, make_config());
  serve::QueryService hot_service(hot_engine, hot,
                                  serve::QueryService::Config{});
  // Pile work onto the hot fleet's slots before each new dataset decides.
  for (const auto& name : datasets) {
    for (int round = 0; round < 3; ++round) {
      ASSERT_EQ(hot_service.submit(dataset_query("P2p-Gnutella31")).get().status,
                serve::QueryStatus::kOk);
    }
    ASSERT_EQ(hot_service.submit(dataset_query(name)).get().status,
              serve::QueryStatus::kOk);
  }

  std::vector<std::pair<std::string, std::string>> cold_table;
  for (const auto& row : cold.placement_table()) {
    if (row.first != "P2p-Gnutella31") cold_table.push_back(row);
  }
  std::vector<std::pair<std::string, std::string>> hot_table;
  for (const auto& row : hot.placement_table()) {
    if (row.first != "P2p-Gnutella31") hot_table.push_back(row);
  }
  EXPECT_EQ(cold_table, hot_table);
}

// --- result cache -----------------------------------------------------------

TEST(FleetCache, RepeatHitsSkipTheDeviceAndMutationInvalidates) {
  framework::Engine engine(small_engine());
  Fleet::Config fc;
  fc.devices = 2;
  Fleet fleet(engine, fc);
  serve::QueryService service(engine, fleet, serve::QueryService::Config{});

  const auto first = service.submit(dataset_query("As-Caida")).get();
  ASSERT_EQ(first.status, serve::QueryStatus::kOk);
  EXPECT_FALSE(first.cache_hit);

  const auto second = service.submit(dataset_query("As-Caida")).get();
  ASSERT_EQ(second.status, serve::QueryStatus::kOk);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.triangles, first.triangles);
  EXPECT_EQ(fleet.cache_counters().hits, 1u);
  // The hit ran no kernel: single_runs stays at the first query's one.
  EXPECT_EQ(fleet.counters().single_runs, 1u);

  // A mutation bumps the version and explicitly invalidates the key...
  auto mut = dataset_query("As-Caida");
  mut.insert_edges = {{0, 1}, {0, 2}, {1, 2}};
  const auto committed = service.submit(std::move(mut)).get();
  ASSERT_EQ(committed.status, serve::QueryStatus::kOk);
  EXPECT_GE(fleet.counters().invalidations, 1u);

  // ...so the next read recomputes at the new version instead of replaying.
  const auto after = service.submit(dataset_query("As-Caida")).get();
  ASSERT_EQ(after.status, serve::QueryStatus::kOk);
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(after.version, committed.version);
  EXPECT_TRUE(after.valid);
}

// --- lifetime: no image outlives its run ------------------------------------

TEST(FleetRelease, ShardImagesOfOneShotAndStaleGraphsAreFreed) {
  framework::Engine engine(small_engine());
  Fleet::Config fc;
  fc.devices = 4;
  fc.shard_min_kernel_ms = 0.0;
  fc.min_speedup = 1.0;
  fc.interconnect = free_link();
  Fleet fleet(engine, fc);
  // One worker: a batch has ended (and dropped its graph handle) before
  // the next one starts.
  serve::QueryService::Config cfg;
  cfg.workers = 1;
  serve::QueryService service(engine, fleet, cfg);

  // Stale graphs: each commit makes the counted graph stale (first the
  // engine's cached v0 prepare, then each materialized head). Shard images
  // live for one run, so once the commit drops the stale handles nothing
  // holds the graph any more.
  std::weak_ptr<const framework::PreparedGraph> v0 = engine.prepare("Com-Dblp");
  const auto v = v0.lock()->stats.num_vertices;
  ASSERT_TRUE(service.submit(dataset_query("Com-Dblp")).get().sharded);
  for (graph::VertexId i = 0; i < 5; ++i) {
    auto grow = dataset_query("Com-Dblp");
    grow.insert_edges = {{v + 2 * i, v + 2 * i + 1}};
    ASSERT_EQ(service.submit(std::move(grow)).get().status,
              serve::QueryStatus::kOk);
    if (i == 0) {
      EXPECT_TRUE(v0.expired());
    }
    const auto count = service.submit(dataset_query("Com-Dblp")).get();
    ASSERT_EQ(count.status, serve::QueryStatus::kOk);
    EXPECT_TRUE(count.sharded);
    EXPECT_TRUE(count.valid);
  }

  // One-shot graphs: inline queries and a version-pinned read.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    serve::QueryRequest req;
    req.edges = gen::generate_er(300, 2'000, seed);
    const auto reply = service.submit(std::move(req)).get();
    ASSERT_EQ(reply.status, serve::QueryStatus::kOk);
    EXPECT_TRUE(reply.sharded);
    EXPECT_TRUE(reply.valid);
  }
  auto pinned = dataset_query("Com-Dblp");
  pinned.version = 4;
  const auto old = service.submit(std::move(pinned)).get();
  ASSERT_EQ(old.status, serve::QueryStatus::kOk);
  EXPECT_TRUE(old.sharded);
  EXPECT_TRUE(old.valid);
}

// --- FleetService: fairness and deadlines ----------------------------------

TEST(FleetServiceTest, ShedsPerTenantAtTheQueueBound) {
  framework::Engine engine(small_engine());
  Fleet::Config fc;
  Fleet fleet(engine, fc);
  FleetService::Config cfg;
  cfg.workers = 1;
  FleetService service(engine, fleet, cfg);
  TenantPolicy tight;
  tight.queue_limit = 1;
  tight.block_when_full = false;
  service.set_tenant_policy("bounded", tight);

  // Saturate: submissions outpace the single worker; the bounded
  // tenant's overflow sheds with a terminal kRejected reply.
  std::vector<std::future<serve::QueryReply>> futures;
  for (int i = 0; i < 12; ++i) {
    auto req = dataset_query("As-Caida");
    req.tenant = "bounded";
    futures.push_back(service.submit(std::move(req)));
  }
  std::uint64_t ok = 0, shed = 0;
  for (auto& f : futures) {
    const auto reply = f.get();
    if (reply.status == serve::QueryStatus::kOk) {
      ++ok;
    } else {
      EXPECT_EQ(reply.status, serve::QueryStatus::kRejected);
      EXPECT_EQ(reply.error, "tenant queue full (shed)");
      EXPECT_EQ(reply.tenant, "bounded");
      ++shed;
    }
  }
  EXPECT_GT(ok, 0u);
  const auto stats = service.tenant_stats().at("bounded");
  EXPECT_EQ(stats.ok, ok);
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(stats.ok + stats.shed, 12u);
}

TEST(FleetServiceTest, ExpiredDeadlinesShedBeforeTheKernel) {
  framework::Engine engine(small_engine());
  Fleet::Config fc;
  Fleet fleet(engine, fc);
  FleetService::Config cfg;
  cfg.workers = 1;
  FleetService service(engine, fleet, cfg);

  // Sub-microsecond deadlines expire in the scheduler queue with certainty;
  // the first query may still win the race to the worker, so assert on
  // the backlog, not every reply.
  std::vector<std::future<serve::QueryReply>> futures;
  for (int i = 0; i < 8; ++i) {
    auto req = dataset_query("As-Caida");
    req.tenant = "slo";
    req.deadline_ms = 1e-6;
    futures.push_back(service.submit(std::move(req)));
  }
  std::uint64_t expired = 0;
  for (auto& f : futures) {
    const auto reply = f.get();
    if (reply.status == serve::QueryStatus::kDeadlineExpired) ++expired;
  }
  EXPECT_GT(expired, 0u);
  EXPECT_EQ(service.tenant_stats().at("slo").expired, expired);
}

TEST(FleetServiceTest, MixedTenantsAllComplete) {
  framework::Engine engine(small_engine());
  Fleet::Config fc;
  fc.devices = 2;
  Fleet fleet(engine, fc);
  FleetService::Config cfg;
  cfg.workers = 2;
  FleetService service(engine, fleet, cfg);
  service.set_tenant_policy("a", TenantPolicy{2.0, 0, true});
  service.set_tenant_policy("b", TenantPolicy{1.0, 0, true});

  std::vector<std::future<serve::QueryReply>> futures;
  for (int i = 0; i < 10; ++i) {
    auto req = dataset_query(i % 2 ? "As-Caida" : "Email-EuAll");
    req.tenant = std::string(i % 2 ? "a" : "b");
    futures.push_back(service.submit(std::move(req)));
  }
  for (auto& f : futures) {
    const auto reply = f.get();
    EXPECT_EQ(reply.status, serve::QueryStatus::kOk);
    EXPECT_TRUE(reply.valid || reply.cache_hit);
  }
  const auto stats = service.tenant_stats();
  EXPECT_EQ(stats.at("a").ok, 5u);
  EXPECT_EQ(stats.at("b").ok, 5u);
}

TEST(FleetServiceTest, ShutdownRefusalsCountAsErrorsNotShed) {
  framework::Engine engine(small_engine());
  Fleet::Config fc;
  Fleet fleet(engine, fc);
  FleetService service(engine, fleet, FleetService::Config{});
  service.shutdown();

  auto req = dataset_query("As-Caida");
  req.tenant = "t";
  EXPECT_EQ(service.submit(std::move(req)).get().status,
            serve::QueryStatus::kShutdown);
  const auto stats = service.tenant_stats().at("t");
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.errors, 1u);
}

}  // namespace
}  // namespace tcgpu::fleet
