#include "stream/dynamic_graph.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "framework/runner.hpp"
#include "gen/rmat.hpp"
#include "graph/cpu_reference.hpp"
#include "graph/prepare.hpp"
#include "graph/stats.hpp"
#include "stream/churn.hpp"
#include "support/graph_oracle.hpp"

namespace tcgpu::stream {
namespace {

/// Path 0-1-2 as an id-oriented DAG: one wedge, no triangle.
graph::Csr path_dag() {
  return graph::build_directed_csr(3, {{0, 1}, {1, 2}});
}

framework::PreparedGraph rmat_graph() {
  gen::RmatParams p;
  p.scale = 11;
  p.edges = 15'000;
  return framework::prepare_graph("rmat_stream", gen::generate_rmat(p, 77));
}

TEST(DynamicGraphSeed, MatchesPreparedGraphExactly) {
  const auto pg = rmat_graph();
  DynamicGraph dyn(pg.dag);
  EXPECT_EQ(dyn.version(), 0u);
  EXPECT_EQ(dyn.triangles(), pg.reference_triangles);
  const auto snap = dyn.snapshot();
  EXPECT_EQ(snap->num_edges(), pg.dag.num_edges());
  EXPECT_EQ(snap->num_vertices(), pg.dag.num_vertices());
  // Snapshots must carry the same stats a fresh prepare computes (the
  // selector re-scores mutated graphs from them), and both must match the
  // sort-then-index oracle.
  oracle::expect_stats_eq(snap->stats(), oracle::stats_of_dag(pg.dag));
  oracle::expect_stats_eq(pg.stats, oracle::stats_of_dag(pg.dag));
  // Round trip: the materialized DAG is the seed DAG.
  EXPECT_EQ(snap->materialize_dag(), pg.dag);
}

TEST(DynamicGraphSeed, RejectsUnorientedInput) {
  // 1 -> 0 violates the id-orientation contract.
  const auto bad = graph::build_directed_csr(2, {{1, 0}});
  EXPECT_THROW(DynamicGraph dyn(bad), std::invalid_argument);
}

TEST(DynamicGraphCommit, SingleInsertClosesTheWedge) {
  DynamicGraph dyn(path_dag());
  const std::vector<EdgeOp> ops = {{0, 2, true}};
  const auto cr = dyn.commit(ops);
  EXPECT_TRUE(cr.changed);
  EXPECT_EQ(cr.version, 1u);
  EXPECT_EQ(cr.inserted, 1u);
  EXPECT_EQ(cr.delta_triangles, 1);
  EXPECT_EQ(cr.triangles, 1u);
  EXPECT_GT(cr.wedge_jobs, 0u);
  EXPECT_GT(cr.stats.time_ms, 0.0);  // the delta kernel really ran (metered)

  EXPECT_TRUE(dyn.snapshot()->has_edge(0, 2));
}

TEST(DynamicGraphCommit, SingleDeleteOpensTheTriangle) {
  const auto tri = graph::build_directed_csr(3, {{0, 1}, {0, 2}, {1, 2}});
  DynamicGraph dyn(tri);
  EXPECT_EQ(dyn.triangles(), 1u);
  const std::vector<EdgeOp> ops = {{1, 0, false}};  // order-insensitive
  const auto cr = dyn.commit(ops);
  EXPECT_EQ(cr.removed, 1u);
  EXPECT_EQ(cr.delta_triangles, -1);
  EXPECT_EQ(cr.triangles, 0u);
  EXPECT_FALSE(dyn.snapshot()->has_edge(0, 1));
}

TEST(DynamicGraphCommit, InsertDeleteReinsertWithinOneBatchIsExact) {
  DynamicGraph dyn(path_dag());
  const std::vector<EdgeOp> ops = {
      {0, 2, true}, {0, 2, false}, {0, 2, true}};
  const auto cr = dyn.commit(ops);
  EXPECT_EQ(cr.inserted, 2u);
  EXPECT_EQ(cr.removed, 1u);
  EXPECT_EQ(cr.skipped, 0u);
  EXPECT_EQ(cr.delta_triangles, 1);
  EXPECT_EQ(cr.triangles, 1u);
}

TEST(DynamicGraphCommit, NoOpBatchDoesNotMoveTheVersion) {
  DynamicGraph dyn(path_dag());
  const std::vector<EdgeOp> ops = {
      {1, 1, true},    // self-loop
      {0, 1, true},    // duplicate insert
      {0, 2, false},   // delete of an absent edge
  };
  const auto cr = dyn.commit(ops);
  EXPECT_FALSE(cr.changed);
  EXPECT_EQ(cr.skipped, 3u);
  EXPECT_EQ(cr.version, 0u);
  EXPECT_EQ(dyn.version(), 0u);
  EXPECT_EQ(cr.delta_triangles, 0);
}

TEST(DynamicGraphSnapshots, CopyOnWriteSharesUntouchedSegments) {
  const auto pg = rmat_graph();
  DynamicGraph dyn(pg.dag);
  const auto before = dyn.snapshot();
  ASSERT_GE(before->num_segments(), 2u);

  // A deterministic fresh edge inside segment 0.
  graph::VertexId v = 1;
  while (before->has_edge(0, v)) ++v;
  const std::vector<EdgeOp> ops = {{0, v, true}};
  ASSERT_TRUE(dyn.commit(ops).changed);
  const auto after = dyn.snapshot();

  ASSERT_EQ(after->num_segments(), before->num_segments());
  std::size_t shared = 0;
  for (std::size_t i = 0; i < after->num_segments(); ++i) {
    if (after->segment(i).get() == before->segment(i).get()) ++shared;
  }
  // Segment 0 (both endpoints live there) was rebuilt; the bulk of the
  // graph rode along untouched.
  EXPECT_NE(after->segment(0).get(), before->segment(0).get());
  EXPECT_GT(shared, 0u);
}

TEST(DynamicGraphSnapshots, CommitRebuildsOnlyEndpointSegments) {
  // Wedge a-w-b with w, a, b in segments 0, 1, 2 of a four-segment graph.
  // Closing it with (a, b) changes only a's and b's rows, so only their
  // segments are rebuilt; w's segment 0 is shared although the commit
  // created a triangle through w.
  constexpr graph::VertexId kW = 3, kA = 300, kB = 600;
  DynamicGraph dyn(graph::build_directed_csr(1'000, {{kW, kA}, {kW, kB}}));
  const auto before = dyn.snapshot();
  ASSERT_EQ(before->num_segments(), 4u);

  const std::vector<EdgeOp> ops = {{kA, kB, true}};
  const auto cr = dyn.commit(ops);
  ASSERT_TRUE(cr.changed);
  EXPECT_EQ(cr.delta_triangles, 1);
  const auto after = dyn.snapshot();
  ASSERT_EQ(after->num_segments(), before->num_segments());
  for (std::size_t i = 0; i < after->num_segments(); ++i) {
    const bool endpoint = i == kA >> Snapshot::kSegmentShift ||
                          i == kB >> Snapshot::kSegmentShift;
    EXPECT_EQ(after->segment(i).get() != before->segment(i).get(), endpoint)
        << "segment " << i;
  }
}

TEST(DynamicGraphSnapshots, OldVersionsStayConsistent) {
  DynamicGraph dyn(path_dag());
  const auto v0 = dyn.snapshot();
  const std::vector<EdgeOp> ops = {{0, 2, true}};
  dyn.commit(ops);
  // The reader holding v0 sees the pre-mutation graph, bit for bit.
  EXPECT_EQ(v0->version(), 0u);
  EXPECT_EQ(v0->triangles(), 0u);
  EXPECT_FALSE(v0->has_edge(0, 2));
  EXPECT_EQ(dyn.snapshot()->triangles(), 1u);
}

TEST(DynamicGraphSnapshots, HistoryWindowTrimsOldestVersions) {
  DynamicGraph::Config cfg;
  cfg.history = 2;
  DynamicGraph dyn(path_dag(), cfg);
  for (const graph::VertexId v : {3, 4, 5}) {
    const std::vector<EdgeOp> ops = {{2, v, true}};
    ASSERT_TRUE(dyn.commit(ops).changed);
  }
  EXPECT_EQ(dyn.version(), 3u);
  EXPECT_EQ(dyn.snapshot_at(3)->version(), 3u);  // head
  ASSERT_NE(dyn.snapshot_at(2), nullptr);        // retained
  ASSERT_NE(dyn.snapshot_at(1), nullptr);        // retained
  EXPECT_EQ(dyn.snapshot_at(0), nullptr);        // aged out (history = 2)
}

TEST(DynamicGraphGrowth, InsertBeyondVertexCountGrowsTheGraph) {
  DynamicGraph dyn(path_dag());
  const std::vector<EdgeOp> grow = {{2, 5, true}};
  ASSERT_TRUE(dyn.commit(grow).changed);
  const auto snap = dyn.snapshot();
  EXPECT_EQ(snap->num_vertices(), 6u);
  EXPECT_EQ(snap->stats().num_vertices, 6u);
  EXPECT_EQ(snap->degree(5), 1u);
  EXPECT_EQ(snap->triangles(), 0u);
  // The grown vertex participates in later triangles like any other.
  const std::vector<EdgeOp> close = {{1, 5, true}};
  EXPECT_EQ(dyn.commit(close).delta_triangles, 1);  // {1, 2, 5}
}

TEST(DynamicGraphStats, MatchFreshComputeAfterChurn) {
  const auto pg = rmat_graph();
  DynamicGraph dyn(pg.dag);
  ChurnGenerator churn(123);
  for (int round = 0; round < 4; ++round) {
    dyn.commit(churn.next_batch(*dyn.snapshot(), 48));
  }
  const auto snap = dyn.snapshot();
  oracle::expect_stats_eq(snap->stats(),
                          oracle::stats_of_dag(snap->materialize_dag()));
}

}  // namespace
}  // namespace tcgpu::stream
