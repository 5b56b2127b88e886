// Serve-layer streaming integration: mutations ride the same admission
// queue as count queries, bump the dataset version, and invalidate every
// stale layer (engine cache, materialized snapshot, cached results and
// placements). Count queries answer against the current snapshot.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace tcgpu::serve {
namespace {

framework::Engine::Config small_engine() {
  framework::Engine::Config cfg;
  cfg.max_edges = 2'000;
  cfg.seed = 42;
  return cfg;
}

QueryRequest count_query(std::string name) {
  QueryRequest req;
  req.dataset = std::move(name);
  return req;
}

/// A mutation guaranteed to be effective: an edge between two fresh
/// vertices (the graph grows, the version must bump).
QueryRequest growing_mutation(framework::Engine& engine,
                              const std::string& name) {
  const auto v = engine.prepare(name)->stats.num_vertices;
  QueryRequest req;
  req.dataset = name;
  req.insert_edges = {{v, v + 1}};
  return req;
}

TEST(StreamService, MutationReplyCarriesVersionAndExactDelta) {
  framework::Engine engine(small_engine());
  QueryService service(engine);

  const auto before = service.submit(count_query("As-Caida")).get();
  ASSERT_EQ(before.status, QueryStatus::kOk);
  EXPECT_EQ(before.version, 0u);

  QueryRequest mutate;
  mutate.dataset = "As-Caida";
  mutate.insert_edges = {{1, 2}, {2, 3}, {1, 3}};
  const auto delta = service.submit(std::move(mutate)).get();
  ASSERT_EQ(delta.status, QueryStatus::kOk);
  EXPECT_EQ(delta.algorithm, "stream-delta");
  EXPECT_TRUE(delta.valid);
  EXPECT_EQ(delta.triangles,
            before.triangles + static_cast<std::uint64_t>(delta.delta_triangles));

  // The post-mutation count runs a full kernel against the materialized
  // snapshot and must agree with the maintained count.
  const auto after = service.submit(count_query("As-Caida")).get();
  ASSERT_EQ(after.status, QueryStatus::kOk);
  EXPECT_TRUE(after.valid);
  EXPECT_EQ(after.version, delta.version);
  EXPECT_EQ(after.triangles, delta.triangles);

  const auto c = service.counters();
  EXPECT_EQ(c.mutations, 1u);
  EXPECT_GE(c.stream_queries, 1u);
}

TEST(StreamService, NoOpMutationKeepsTheVersion) {
  framework::Engine engine(small_engine());
  QueryService service(engine);
  QueryRequest mutate;
  mutate.dataset = "As-Caida";
  mutate.insert_edges = {{7, 7}};  // self-loop: normalized away
  const auto reply = service.submit(std::move(mutate)).get();
  ASSERT_EQ(reply.status, QueryStatus::kOk);
  EXPECT_EQ(reply.version, 0u);
  EXPECT_EQ(reply.delta_triangles, 0);
  EXPECT_EQ(service.dataset_version("As-Caida"), 0u);
}

TEST(StreamService, VersionBumpInvalidatesEveryStaleLayer) {
  framework::Engine engine(small_engine());
  QueryService service(engine);

  // Warmup: caches the v0 prepare and the v0 count.
  ASSERT_EQ(service.submit(count_query("As-Caida")).get().status,
            QueryStatus::kOk);
  EXPECT_EQ(engine.resident_graphs(), 1u);

  const auto mut =
      service.submit(growing_mutation(engine, "As-Caida")).get();
  ASSERT_EQ(mut.status, QueryStatus::kOk);
  ASSERT_EQ(mut.version, 1u);
  EXPECT_EQ(service.dataset_version("As-Caida"), 1u);

  // The pre-mutation cached prepares are gone.
  EXPECT_EQ(engine.resident_graphs(), 0u);

  // The next count is scored and run at v1: the v1 count misses the cache.
  const auto recount = service.submit(count_query("As-Caida")).get();
  ASSERT_EQ(recount.status, QueryStatus::kOk);
  EXPECT_EQ(recount.version, 1u);
  EXPECT_TRUE(recount.valid);
  EXPECT_FALSE(recount.cache_hit);
  // Streamed answers never re-ran the prepare pipeline: the engine cache
  // stayed empty (the snapshot is materialized service-side).
  EXPECT_EQ(engine.resident_graphs(), 0u);
}

TEST(StreamService, MutationsRequireANamedDataset) {
  framework::Engine engine(small_engine());
  QueryService service(engine);
  QueryRequest req;
  req.name = "inline-mut";
  req.edges.num_vertices = 4;
  req.edges.edges = {{0, 1}, {1, 2}};
  req.insert_edges = {{0, 2}};
  const auto reply = service.submit(std::move(req)).get();
  EXPECT_EQ(reply.status, QueryStatus::kInvalidRequest);
  EXPECT_NE(reply.error.find("named dataset"), std::string::npos);

  // Unknown datasets fail with the registry's error, like count queries.
  QueryRequest unknown;
  unknown.dataset = "No-Such-Graph";
  unknown.insert_edges = {{0, 1}};
  const auto bad = service.submit(std::move(unknown)).get();
  EXPECT_EQ(bad.status, QueryStatus::kInvalidRequest);
  EXPECT_NE(bad.error.find("No-Such-Graph"), std::string::npos);
}

TEST(StreamService, MixedBatchAppliesInSubmissionOrder) {
  framework::Engine engine(small_engine());
  QueryService::Config cfg;
  cfg.workers = 1;  // one worker => same-key requests fuse into one batch
  QueryService service(engine, cfg);

  const auto v = engine.prepare("Wiki-Talk")->stats.num_vertices;
  std::vector<std::future<QueryReply>> futures;
  futures.push_back(service.submit(count_query("Wiki-Talk")));
  QueryRequest grow;
  grow.dataset = "Wiki-Talk";
  grow.insert_edges = {{v, v + 1}};
  futures.push_back(service.submit(std::move(grow)));
  futures.push_back(service.submit(count_query("Wiki-Talk")));

  std::vector<QueryReply> replies;
  for (auto& f : futures) replies.push_back(f.get());
  for (const auto& r : replies) ASSERT_EQ(r.status, QueryStatus::kOk);
  // Replies resolve in submission order within the batch; the trailing
  // count sees the mutation's version whenever they fused.
  EXPECT_EQ(replies[1].algorithm, "stream-delta");
  EXPECT_EQ(replies[2].version, replies[1].version);
  EXPECT_EQ(replies[2].triangles, replies[1].triangles);
  EXPECT_TRUE(replies[2].valid);
}

TEST(StreamServicePinned, VersionPinnedQueryTimeTravels) {
  framework::Engine engine(small_engine());
  QueryService service(engine);

  const auto v0 = service.submit(count_query("As-Caida")).get();
  ASSERT_EQ(v0.status, QueryStatus::kOk);
  ASSERT_EQ(service.submit(growing_mutation(engine, "As-Caida")).get().status,
            QueryStatus::kOk);
  QueryRequest close;
  close.dataset = "As-Caida";
  close.insert_edges = {{1, 2}, {2, 3}, {1, 3}};
  const auto v2 = service.submit(std::move(close)).get();
  ASSERT_EQ(v2.status, QueryStatus::kOk);
  ASSERT_EQ(v2.version, 2u);

  // Head answers at v2; a pinned read answers against the retained v1
  // snapshot — exact, validated, and labeled with the pinned version.
  auto pinned = count_query("As-Caida");
  pinned.version = 1;
  const auto old = service.submit(std::move(pinned)).get();
  ASSERT_EQ(old.status, QueryStatus::kOk);
  EXPECT_EQ(old.version, 1u);
  EXPECT_TRUE(old.valid);
  EXPECT_EQ(old.triangles, v0.triangles);  // the growth insert closed nothing

  const auto head = service.submit(count_query("As-Caida")).get();
  ASSERT_EQ(head.status, QueryStatus::kOk);
  EXPECT_EQ(head.version, 2u);
  EXPECT_EQ(head.triangles, v2.triangles);
}

TEST(StreamServicePinned, PinErrorsAreOneLiners) {
  framework::Engine engine(small_engine());
  QueryService service(engine);

  // No mutation history at all.
  auto no_history = count_query("As-Caida");
  no_history.version = 1;
  const auto a = service.submit(std::move(no_history)).get();
  EXPECT_EQ(a.status, QueryStatus::kInvalidRequest);
  EXPECT_NE(a.error.find("no mutation history"), std::string::npos);

  // Outside the retained window (history keeps the last 4 by default).
  // Each batch inserts a distinct fresh edge so every commit is effective.
  const auto v = engine.prepare("As-Caida")->stats.num_vertices;
  for (graph::VertexId i = 0; i < 6; ++i) {
    QueryRequest grow;
    grow.dataset = "As-Caida";
    grow.insert_edges = {{v + 2 * i, v + 2 * i + 1}};
    const auto r = service.submit(std::move(grow)).get();
    ASSERT_EQ(r.status, QueryStatus::kOk);
    ASSERT_EQ(r.version, i + 1u);
  }
  auto aged_out = count_query("As-Caida");
  aged_out.version = 1;
  const auto b = service.submit(std::move(aged_out)).get();
  EXPECT_EQ(b.status, QueryStatus::kInvalidRequest);
  EXPECT_NE(b.error.find("outside history window"), std::string::npos);

  // Pinning composes with neither mutations nor inline graphs.
  auto mut = growing_mutation(engine, "As-Caida");
  mut.version = 2;
  const auto c = service.submit(std::move(mut)).get();
  EXPECT_EQ(c.status, QueryStatus::kInvalidRequest);
  EXPECT_NE(c.error.find("head version"), std::string::npos);

  QueryRequest inline_pin;
  inline_pin.edges.num_vertices = 3;
  inline_pin.edges.edges = {{0, 1}, {1, 2}, {0, 2}};
  inline_pin.version = 1;
  const auto d = service.submit(std::move(inline_pin)).get();
  EXPECT_EQ(d.status, QueryStatus::kInvalidRequest);
  EXPECT_NE(d.error.find("no version history"), std::string::npos);
}

TEST(StreamService, HugeBatchCommitsAsOneDelta) {
  framework::Engine engine(small_engine());
  QueryService service(engine);

  // A 4,000-op batch takes the one commit path — a single metered delta
  // kernel — and the maintained state stays exact.
  const auto before = service.submit(count_query("As-Caida")).get();
  ASSERT_EQ(before.status, QueryStatus::kOk);
  const auto v = engine.prepare("As-Caida")->stats.num_vertices;
  QueryRequest bulk;
  bulk.dataset = "As-Caida";
  for (graph::VertexId i = 0; i < 4'000; ++i) {
    bulk.insert_edges.push_back({v + i, v + i + 1});
  }
  const auto huge = service.submit(std::move(bulk)).get();
  ASSERT_EQ(huge.status, QueryStatus::kOk);
  EXPECT_EQ(huge.algorithm, "stream-delta");
  EXPECT_GT(huge.stats.time_ms, 0.0);
  EXPECT_EQ(huge.triangles, before.triangles);  // a path chain closes nothing

  const auto after = service.submit(count_query("As-Caida")).get();
  ASSERT_EQ(after.status, QueryStatus::kOk);
  EXPECT_TRUE(after.valid);
  EXPECT_EQ(after.triangles, huge.triangles);
}

TEST(StreamServiceRace, CountsRacingCommitsMatchTheirVersionsTotal) {
  // A count resolves the streamed head under the dataset's lock and runs
  // after dropping it, so a commit on the other worker can move the head
  // while the count's kernel runs. Writer and reader are separate tenants,
  // so their queries never share a batch. Every count must be valid and
  // report the total that its version had.
  framework::Engine engine(small_engine());
  QueryService::Config cfg;
  cfg.workers = 2;
  QueryService service(engine, cfg);
  const std::string name = "As-Caida";
  const auto base = engine.prepare(name);
  const graph::VertexId v = base->stats.num_vertices;
  constexpr graph::VertexId kCommits = 32;
  constexpr std::size_t kMinCounts = 8;

  std::vector<QueryReply> commits;
  std::vector<QueryReply> counts;
  std::atomic<bool> writing{true};
  std::thread writer([&] {
    for (graph::VertexId i = 0; i < kCommits; ++i) {
      // A triangle on three fresh vertices: every commit bumps the version
      // and adds exactly one triangle.
      const graph::VertexId a = v + 3 * i;
      QueryRequest req;
      req.dataset = name;
      req.tenant = "writer";
      req.insert_edges = {{a, a + 1}, {a + 1, a + 2}, {a, a + 2}};
      commits.push_back(service.submit(std::move(req)).get());
    }
    writing = false;
  });
  std::thread reader([&] {
    while (writing.load() || counts.size() < kMinCounts) {
      QueryRequest req = count_query(name);
      req.tenant = "reader";
      counts.push_back(service.submit(std::move(req)).get());
    }
  });
  writer.join();
  reader.join();

  std::map<std::uint64_t, std::uint64_t> total_at = {
      {0, base->reference_triangles}};
  for (const auto& c : commits) {
    ASSERT_EQ(c.status, QueryStatus::kOk) << c.error;
    total_at[c.version] = c.triangles;
  }
  ASSERT_EQ(total_at.size(), kCommits + 1u);
  EXPECT_EQ(total_at.rbegin()->second, base->reference_triangles + kCommits);
  for (const auto& r : counts) {
    ASSERT_EQ(r.status, QueryStatus::kOk) << r.error;
    EXPECT_TRUE(r.valid) << "v" << r.version;
    ASSERT_EQ(total_at.count(r.version), 1u) << "v" << r.version;
    EXPECT_EQ(r.triangles, total_at[r.version]) << "v" << r.version;
  }
}

}  // namespace
}  // namespace tcgpu::serve
