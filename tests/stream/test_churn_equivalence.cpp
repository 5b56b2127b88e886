// Randomized churn equivalence: after every committed batch the maintained
// state must equal a from-scratch recompute of the materialized graph —
// global count (CPU forward reference) and the version sequence. Plus the
// determinism contract: commits are bit-identical across OMP thread counts,
// the same property tests/tc/test_determinism.cpp pins for the static
// kernels.
#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <vector>

#include "framework/runner.hpp"
#include "gen/chung_lu.hpp"
#include "gen/rmat.hpp"
#include "graph/cpu_reference.hpp"
#include "stream/churn.hpp"
#include "stream/dynamic_graph.hpp"

namespace tcgpu::stream {
namespace {

/// Restores the global OpenMP thread count on scope exit so a failing
/// assertion cannot leak a 1-thread setting into later tests.
class ThreadCountGuard {
 public:
  ThreadCountGuard() {
#ifdef _OPENMP
    saved_ = omp_get_max_threads();
#endif
  }
  ~ThreadCountGuard() {
#ifdef _OPENMP
    omp_set_num_threads(saved_);
#endif
  }
  void set(int n) {
#ifdef _OPENMP
    omp_set_num_threads(n);
#else
    (void)n;
#endif
  }

 private:
  int saved_ = 1;
};

framework::PreparedGraph make_graph(const std::string& family) {
  if (family == "rmat") {
    gen::RmatParams p;
    p.scale = 10;
    p.edges = 8'000;
    return framework::prepare_graph("rmat_churn", gen::generate_rmat(p, 9));
  }
  gen::ChungLuParams p;
  p.vertices = 1'200;
  p.edges = 8'000;
  return framework::prepare_graph("chung_lu_churn",
                                  gen::generate_chung_lu(p, 9));
}

class ChurnEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(ChurnEquivalence, EveryVersionMatchesFreshRecount) {
  const auto pg = make_graph(GetParam());
  DynamicGraph dyn(pg.dag);
  ChurnGenerator churn(2026);

  std::uint64_t expected_version = 0;
  for (int round = 0; round < 6; ++round) {
    const auto ops = churn.next_batch(*dyn.snapshot(), 64);
    const auto cr = dyn.commit(ops);
    if (cr.changed) ++expected_version;
    ASSERT_EQ(cr.version, expected_version);

    const auto dag = dyn.snapshot()->materialize_dag();
    // Global count: the maintained delta chain vs a fresh CPU reference.
    ASSERT_EQ(dyn.triangles(), graph::count_triangles_forward(dag))
        << GetParam() << " diverged at round " << round;
    ASSERT_EQ(cr.triangles, dyn.triangles());
  }
}

TEST_P(ChurnEquivalence, DeleteEverythingReachesTheEmptyGraph) {
  const auto pg = make_graph(GetParam());
  DynamicGraph dyn(pg.dag);
  // Drain the graph by deleting its remaining edges in 128-op batches,
  // re-enumerated from the live snapshot each round.
  while (dyn.snapshot()->num_edges() > 0) {
    const auto snap = dyn.snapshot();
    std::vector<EdgeOp> ops;
    for (graph::VertexId u = 0;
         u < snap->num_vertices() && ops.size() < 128; ++u) {
      for (const auto v : snap->neighbors(u)) {
        if (v <= u) continue;  // each undirected edge once
        ops.push_back({u, v, false});
        if (ops.size() == 128) break;
      }
    }
    ASSERT_FALSE(ops.empty());
    const auto cr = dyn.commit(ops);
    ASSERT_EQ(cr.removed, ops.size());
  }
  EXPECT_EQ(dyn.triangles(), 0u);
  EXPECT_EQ(dyn.snapshot()->stats().sum_out_degree_sq, 0u);
  EXPECT_EQ(dyn.snapshot()->stats().max_degree, 0u);
}

TEST_P(ChurnEquivalence, CommitsBitIdenticalAcrossOmpThreadCounts) {
  const auto pg = make_graph(GetParam());

  ThreadCountGuard guard;
  std::vector<std::vector<CommitResult>> runs;
  for (const int threads : {1, 2, 8}) {
    guard.set(threads);
    DynamicGraph dyn(pg.dag);
    ChurnGenerator churn(4242);  // identical op stream per run
    std::vector<CommitResult> commits;
    for (int round = 0; round < 4; ++round) {
      commits.push_back(dyn.commit(churn.next_batch(*dyn.snapshot(), 64)));
    }
    runs.push_back(std::move(commits));
  }

  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[r].size(); ++i) {
      EXPECT_EQ(runs[r][i].triangles, runs[0][i].triangles);
      EXPECT_EQ(runs[r][i].delta_triangles, runs[0][i].delta_triangles);
      EXPECT_EQ(runs[r][i].version, runs[0][i].version);
      // operator== is defaulted: every counter and the double time_ms
      // compare exactly — any schedule-dependent accumulation shows here.
      EXPECT_TRUE(runs[r][i].stats == runs[0][i].stats)
          << GetParam() << ": delta-kernel stats differ at commit " << i
          << " between 1 thread and run " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PowerLawFamilies, ChurnEquivalence,
                         ::testing::Values("rmat", "chung_lu"));

}  // namespace
}  // namespace tcgpu::stream
