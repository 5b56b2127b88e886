#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <vector>

#include "framework/registry.hpp"
#include "gen/er.hpp"

namespace tcgpu::serve {
namespace {

framework::Engine::Config small_engine() {
  framework::Engine::Config cfg;
  cfg.max_edges = 2'000;
  cfg.seed = 42;
  return cfg;
}

QueryRequest dataset_query(std::string name) {
  QueryRequest req;
  req.dataset = std::move(name);
  return req;
}

TEST(ServiceBasics, DatasetQueryRunsSelectsAndValidates) {
  framework::Engine engine(small_engine());
  QueryService service(engine);
  const auto reply = service.submit(dataset_query("As-Caida")).get();
  EXPECT_EQ(reply.status, QueryStatus::kOk);
  EXPECT_TRUE(reply.valid);
  EXPECT_TRUE(reply.selected);
  EXPECT_FALSE(reply.algorithm.empty());
  EXPECT_GT(reply.modeled.modeled_ms, 0.0);
  EXPECT_GT(reply.stats.time_ms, 0.0);
  EXPECT_EQ(reply.triangles, engine.prepare("As-Caida")->reference_triangles);
  // The trace covers the whole pipeline in order.
  EXPECT_GE(reply.trace.queue_ms(), 0.0);
  EXPECT_GE(reply.trace.prepare_ms(), 0.0);
  EXPECT_GE(reply.trace.run_ms(), 0.0);
  EXPECT_GE(reply.trace.total_ms(), reply.trace.run_ms());
}

TEST(ServiceBasics, ForcedAlgorithmSkipsSelection) {
  framework::Engine engine(small_engine());
  QueryService service(engine);
  auto req = dataset_query("As-Caida");
  req.algorithm = "Polak";
  const auto reply = service.submit(std::move(req)).get();
  EXPECT_EQ(reply.status, QueryStatus::kOk);
  EXPECT_EQ(reply.algorithm, "Polak");
  EXPECT_FALSE(reply.selected);
  EXPECT_TRUE(reply.valid);
}

TEST(ServiceBasics, InlineEdgeListQueryCounts) {
  framework::Engine engine(small_engine());
  QueryService service(engine);
  QueryRequest req;
  req.edges = gen::generate_er(200, 1'200, 3);
  req.name = "er-200";
  const auto reply = service.submit(std::move(req)).get();
  EXPECT_EQ(reply.status, QueryStatus::kOk);
  EXPECT_EQ(reply.dataset, "er-200");
  EXPECT_TRUE(reply.valid);
  EXPECT_GT(reply.triangles, 0u);
}

TEST(ServiceCache, RepeatQueryIsAnsweredFromTheResultCache) {
  framework::Engine engine(small_engine());
  QueryService service(engine);
  const auto first = service.submit(dataset_query("As-Caida")).get();
  ASSERT_EQ(first.status, QueryStatus::kOk);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.placement, "single");

  const auto repeat = service.submit(dataset_query("As-Caida")).get();
  ASSERT_EQ(repeat.status, QueryStatus::kOk);
  EXPECT_TRUE(repeat.cache_hit);
  EXPECT_EQ(repeat.placement, "single");
  EXPECT_EQ(repeat.algorithm, first.algorithm);
  EXPECT_EQ(repeat.triangles, first.triangles);
  EXPECT_TRUE(repeat.valid);
  EXPECT_EQ(engine.counters().cells, 1u);  // no second kernel run
}

TEST(ServiceErrors, TerminalStatusesNeverAbandonTheFuture) {
  framework::Engine engine(small_engine());
  QueryService service(engine);

  // Empty request: no dataset, no edges.
  const auto empty = service.submit(QueryRequest{}).get();
  EXPECT_EQ(empty.status, QueryStatus::kInvalidRequest);
  EXPECT_FALSE(empty.error.empty());

  // Unknown dataset name: the reply carries the registry's error text.
  const auto unknown = service.submit(dataset_query("No-Such-Graph")).get();
  EXPECT_EQ(unknown.status, QueryStatus::kInvalidRequest);
  EXPECT_NE(unknown.error.find("No-Such-Graph"), std::string::npos);
  EXPECT_NE(unknown.error.find("As-Caida"), std::string::npos);  // names valid

  // Unknown forced kernel.
  auto bad_algo = dataset_query("As-Caida");
  bad_algo.algorithm = "Polka";
  const auto reply = service.submit(std::move(bad_algo)).get();
  EXPECT_EQ(reply.status, QueryStatus::kInvalidRequest);
  EXPECT_NE(reply.error.find("Polka"), std::string::npos);

  const auto c = service.counters();
  EXPECT_GE(c.errors, 3u);
}

TEST(ServiceDeadline, ExpiredQueriesAreDroppedBeforeDispatch) {
  framework::Engine engine(small_engine());
  QueryService service(engine);
  auto req = dataset_query("As-Caida");
  req.deadline_ms = 1e-6;  // expires between enqueue and dispatch
  const auto reply = service.submit(std::move(req)).get();
  EXPECT_EQ(reply.status, QueryStatus::kDeadlineExpired);
  EXPECT_EQ(service.counters().expired, 1u);
}

TEST(ServiceShutdown, DrainsBacklogAndRefusesNewWork) {
  framework::Engine engine(small_engine());
  std::vector<std::future<QueryReply>> futures;
  {
    QueryService service(engine);
    for (int i = 0; i < 6; ++i) {
      futures.push_back(service.submit(dataset_query("As-Caida")));
    }
    service.shutdown();
    // Admitted queries were drained, not dropped.
    const auto late = service.submit(dataset_query("As-Caida")).get();
    EXPECT_EQ(late.status, QueryStatus::kShutdown);
  }  // destructor: second shutdown is a no-op
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, QueryStatus::kOk);
  }
}

TEST(ServiceBackpressure, NonBlockingModeShedsLoad) {
  framework::Engine engine(small_engine());
  QueryService::Config cfg;
  cfg.workers = 1;
  cfg.default_policy.queue_limit = 1;
  cfg.default_policy.block_when_full = false;
  QueryService service(engine, cfg);
  std::vector<std::future<QueryReply>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(service.submit(dataset_query("As-Caida")));
  }
  std::size_t ok = 0, rejected = 0;
  for (auto& f : futures) {
    const auto reply = f.get();
    if (reply.status == QueryStatus::kOk) ++ok;
    if (reply.status == QueryStatus::kRejected) ++rejected;
  }
  EXPECT_EQ(ok + rejected, 50u);
  EXPECT_GT(ok, 0u);        // the queue made progress
  EXPECT_GT(rejected, 0u);  // and a 1-deep queue shed load under a burst
  EXPECT_EQ(service.counters().rejected, rejected);
}

TEST(ServiceBackpressure, TenantBoundShedsOnlyThatTenant) {
  framework::Engine engine(small_engine());
  QueryService::Config cfg;
  cfg.workers = 1;
  QueryService service(engine, cfg);
  TenantPolicy tight;
  tight.queue_limit = 1;
  tight.block_when_full = false;
  service.set_tenant_policy("tight", tight);

  // Park the single worker on a large inline graph so both tenants' bursts
  // queue behind it.
  QueryRequest slow;
  slow.edges = gen::generate_er(2'000, 20'000, 7);
  slow.tenant = "tight";
  auto first = service.submit(std::move(slow));
  std::vector<std::future<QueryReply>> tight_replies, other_replies;
  for (int i = 0; i < 8; ++i) {
    auto t = dataset_query("As-Caida");
    t.tenant = "tight";
    tight_replies.push_back(service.submit(std::move(t)));
    auto o = dataset_query("As-Caida");
    o.tenant = "other";
    other_replies.push_back(service.submit(std::move(o)));
  }
  EXPECT_EQ(first.get().status, QueryStatus::kOk);

  std::uint64_t shed = 0;
  for (auto& f : tight_replies) {
    const auto reply = f.get();
    EXPECT_EQ(reply.tenant, "tight");
    if (reply.status == QueryStatus::kRejected) {
      EXPECT_EQ(reply.error, "tenant queue full (shed)");
      ++shed;
    } else {
      EXPECT_EQ(reply.status, QueryStatus::kOk);
    }
  }
  EXPECT_GT(shed, 0u);
  // The default bound (64) admits the other tenant's whole burst.
  for (auto& f : other_replies) EXPECT_EQ(f.get().status, QueryStatus::kOk);

  const auto stats = service.tenant_stats();
  EXPECT_EQ(stats.at("tight").shed, shed);
  EXPECT_EQ(stats.at("tight").ok + shed, 9u);
  EXPECT_EQ(stats.at("other").ok, 8u);
  EXPECT_EQ(stats.at("other").shed, 0u);
}

TEST(ServiceBatching, SameGraphQueriesShareOnePrepare) {
  framework::Engine engine(small_engine());
  QueryService::Config cfg;
  cfg.workers = 1;
  QueryService service(engine, cfg);
  std::vector<std::future<QueryReply>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(service.submit(dataset_query("Wiki-Talk")));
  }
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, QueryStatus::kOk);
  }
  const auto c = service.counters();
  EXPECT_EQ(c.served, 12u);
  EXPECT_EQ(c.batches + c.batched, 12u);  // every query rode some batch
  // Whatever the batching pattern, the engine prepared the graph once.
  EXPECT_EQ(engine.counters().prepares, 1u);
  EXPECT_EQ(engine.counters().uploads, 1u);
}

TEST(ServiceDeterminism, DecisionTableAndCountsAreReproducible) {
  const std::vector<std::string> workload = {"As-Caida", "Wiki-Talk",
                                             "RoadNet-CA"};
  auto run_service = [&](bool reversed) {
    framework::Engine engine(small_engine());
    QueryService service(engine);
    // Warmup serially in fixed order.
    for (const auto& ds : workload) {
      EXPECT_EQ(service.submit(dataset_query(ds)).get().status,
                QueryStatus::kOk);
    }
    // Then a burst in a different order must not change anything.
    auto burst = workload;
    if (reversed) std::reverse(burst.begin(), burst.end());
    std::vector<std::future<QueryReply>> futures;
    for (int round = 0; round < 3; ++round) {
      for (const auto& ds : burst) {
        futures.push_back(service.submit(dataset_query(ds)));
      }
    }
    std::vector<std::pair<std::string, std::uint64_t>> results;
    for (auto& f : futures) {
      auto reply = f.get();
      EXPECT_EQ(reply.status, QueryStatus::kOk);
      results.emplace_back(reply.dataset + "/" + reply.algorithm,
                           reply.triangles);
    }
    std::sort(results.begin(), results.end());
    return results;
  };
  // Same (graph, algorithm, count) triples: same picks, same counts.
  EXPECT_EQ(run_service(false), run_service(true));
}

TEST(ServiceDeterminism, PickIsAPureFunctionOfTheGraphAndHint) {
  // Query history must not move a pick: after every pool kernel has been
  // forced once on the graph, auto queries still get the a-priori choice
  // and its modeled cost.
  framework::Engine engine(small_engine());
  QueryService service(engine);
  for (const auto& entry : framework::pool_algorithms()) {
    auto req = dataset_query("As-Caida");
    req.algorithm = entry.name;
    ASSERT_EQ(service.submit(std::move(req)).get().status, QueryStatus::kOk)
        << entry.name;
  }
  const auto pg = engine.prepare("As-Caida");
  const Selector apriori(engine.config().spec);
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    const auto reply = service.submit(dataset_query("As-Caida")).get();
    ASSERT_EQ(reply.status, QueryStatus::kOk);
    const auto pick = apriori.choose(pg->stats);
    EXPECT_EQ(reply.algorithm, pick.algorithm);
    EXPECT_EQ(reply.modeled.modeled_ms, pick.cost.modeled_ms);
  }
}

TEST(ServiceEviction, CappedEngineStaysBoundedUnderRotation) {
  auto cfg = small_engine();
  cfg.max_resident = 2;
  framework::Engine engine(cfg);
  QueryService service(engine);
  const std::vector<std::string> rotation = {"As-Caida", "Wiki-Talk",
                                             "RoadNet-CA", "Com-Dblp"};
  for (int round = 0; round < 2; ++round) {
    for (const auto& ds : rotation) {
      EXPECT_EQ(service.submit(dataset_query(ds)).get().status,
                QueryStatus::kOk);
    }
  }
  EXPECT_LE(engine.resident_graphs(), 2u);
  EXPECT_GT(engine.counters().evictions, 0u);
}

TEST(ServiceLifetime, InlineGraphsLeaveNoPerKeyState) {
  // Each distinct inline graph latches a fleet placement and a cached
  // result; both go when its batch ends. One worker runs the batches in
  // order, so each has ended before the next query is popped.
  framework::Engine engine(small_engine());
  fleet::Fleet fleet(engine, fleet::Fleet::Config{});
  QueryService::Config cfg;
  cfg.workers = 1;
  QueryService service(engine, fleet, cfg);
  const auto inline_query = [](std::uint64_t seed) {
    QueryRequest req;
    req.edges = gen::generate_er(60, 150, seed);
    return req;
  };
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const auto reply = service.submit(inline_query(seed)).get();
    ASSERT_EQ(reply.status, QueryStatus::kOk) << seed;
    EXPECT_TRUE(reply.valid) << seed;
    EXPECT_FALSE(reply.cache_hit) << seed;
  }
  // An identical graph sent in a later batch is run again.
  const auto again = service.submit(inline_query(1)).get();
  ASSERT_EQ(again.status, QueryStatus::kOk);
  EXPECT_FALSE(again.cache_hit);

  service.shutdown();  // joins the worker: every batch has ended
  EXPECT_TRUE(fleet.placement_table().empty());
}

}  // namespace
}  // namespace tcgpu::serve
