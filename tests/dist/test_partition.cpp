#include "dist/partition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "framework/runner.hpp"
#include "gen/er.hpp"
#include "gen/paper_datasets.hpp"
#include "gen/rng.hpp"

namespace tcgpu::dist {
namespace {

/// A mid-sized oriented DAG with a non-trivial triangle population.
graph::Csr test_dag() {
  static const graph::Csr dag =
      framework::prepare_graph("er", gen::generate_er(400, 3000, 7)).dag;
  return dag;
}

std::vector<PartitionStrategy> strategies() { return all_partition_strategies(); }

TEST(PartitionStrategy, NamesRoundTrip) {
  for (const auto s : strategies()) {
    EXPECT_EQ(partition_strategy_from_string(to_string(s)), s);
  }
  EXPECT_EQ(to_string(PartitionStrategy::kRange), "range");
  EXPECT_EQ(to_string(PartitionStrategy::kHash), "hash");
  EXPECT_EQ(to_string(PartitionStrategy::k2D), "2d");
  EXPECT_EQ(to_string(PartitionStrategy::kHostAware), "host");
}

TEST(PartitionStrategy, UnknownNameFailsLoudly) {
  EXPECT_THROW(partition_strategy_from_string(""), std::invalid_argument);
  EXPECT_THROW(partition_strategy_from_string("random"), std::invalid_argument);
  EXPECT_THROW(partition_strategy_from_string("RANGE"), std::invalid_argument);
  EXPECT_THROW(partition_strategy_from_string("2D"), std::invalid_argument);
}

TEST(Partitioner, ZeroDevicesIsRejected) {
  EXPECT_THROW(Partitioner(PartitionStrategy::kRange, 0, 42),
               std::invalid_argument);
}

TEST(Partitioner, TwoDGridUsesSquarestFactorization) {
  const auto grid = [](std::uint32_t n) {
    const Partitioner p(PartitionStrategy::k2D, n, 42);
    return std::make_pair(p.grid_rows(), p.grid_cols());
  };
  EXPECT_EQ(grid(1), std::make_pair(1u, 1u));
  EXPECT_EQ(grid(2), std::make_pair(1u, 2u));
  EXPECT_EQ(grid(4), std::make_pair(2u, 2u));
  EXPECT_EQ(grid(6), std::make_pair(2u, 3u));
  EXPECT_EQ(grid(8), std::make_pair(2u, 4u));
  EXPECT_EQ(grid(9), std::make_pair(3u, 3u));
}

TEST(Partitioner, SingleDeviceShardIsTheWholeGraph) {
  const graph::Csr dag = test_dag();
  for (const auto s : strategies()) {
    const Partitioning parts = Partitioner(s, 1, 42).partition(dag);
    ASSERT_EQ(parts.shards.size(), 1u);
    const Shard& shard = parts.shards[0];
    EXPECT_EQ(shard.csr, dag);
    EXPECT_FALSE(shard.use_anchor_list);
    EXPECT_TRUE(shard.anchors.empty());
    EXPECT_EQ(shard.edge_u.size(), dag.num_edges());
    EXPECT_EQ(shard.ghost_vertices, 0u);
    EXPECT_EQ(shard.recv_bytes(), 0u);
    EXPECT_DOUBLE_EQ(parts.report.replication_factor, 1.0);
    EXPECT_DOUBLE_EQ(parts.report.edge_balance, 1.0);
  }
}

TEST(Partitioner, AnchorsPartitionTheVertexSet) {
  const graph::Csr dag = test_dag();
  for (const auto s : strategies()) {
    const Partitioning parts = Partitioner(s, 4, 42).partition(dag);
    std::vector<int> seen(dag.num_vertices(), 0);
    for (const Shard& shard : parts.shards) {
      EXPECT_TRUE(shard.use_anchor_list);
      for (const std::uint32_t u : shard.anchors) ++seen[u];
    }
    for (const int count : seen) EXPECT_EQ(count, 1) << to_string(s);
  }
}

TEST(Partitioner, OwnedEdgesPartitionTheEdgeSet) {
  const graph::Csr dag = test_dag();
  for (const auto s : strategies()) {
    const Partitioning parts = Partitioner(s, 4, 42).partition(dag);
    std::map<std::pair<std::uint32_t, std::uint32_t>, int> seen;
    std::uint64_t total = 0;
    for (const Shard& shard : parts.shards) {
      ASSERT_EQ(shard.edge_u.size(), shard.edge_v.size());
      total += shard.edge_u.size();
      for (std::size_t i = 0; i < shard.edge_u.size(); ++i) {
        ++seen[{shard.edge_u[i], shard.edge_v[i]}];
      }
    }
    EXPECT_EQ(total, dag.num_edges()) << to_string(s);
    for (std::uint32_t u = 0; u < dag.num_vertices(); ++u) {
      for (const std::uint32_t v : dag.neighbors(u)) {
        EXPECT_EQ(seen[std::make_pair(u, v)], 1)
            << to_string(s) << " edge " << u << "->" << v;
      }
    }
  }
}

TEST(Partitioner, ShardRowsCarryTheFullGlobalAdjacency) {
  const graph::Csr dag = test_dag();
  for (const auto s : strategies()) {
    const Partitioning parts = Partitioner(s, 4, 42).partition(dag);
    for (const Shard& shard : parts.shards) {
      ASSERT_EQ(shard.csr.num_vertices(), dag.num_vertices());
      // Every non-empty shard row is the complete global row (kernels
      // binary-search and merge whole neighbor lists).
      for (std::uint32_t v = 0; v < dag.num_vertices(); ++v) {
        const auto row = shard.csr.neighbors(v);
        if (row.empty()) continue;
        ASSERT_EQ(row.size(), dag.neighbors(v).size());
        EXPECT_TRUE(std::equal(row.begin(), row.end(),
                               dag.neighbors(v).begin()));
      }
      // Owned work only touches rows the shard holds: anchor rows, anchor
      // neighbors' rows, and both endpoint rows of every owned edge.
      for (const std::uint32_t u : shard.anchors) {
        EXPECT_EQ(shard.csr.degree(u), dag.degree(u));
        for (const std::uint32_t v : dag.neighbors(u)) {
          EXPECT_EQ(shard.csr.degree(v), dag.degree(v));
        }
      }
      for (std::size_t i = 0; i < shard.edge_u.size(); ++i) {
        EXPECT_EQ(shard.csr.degree(shard.edge_u[i]), dag.degree(shard.edge_u[i]));
        EXPECT_EQ(shard.csr.degree(shard.edge_v[i]), dag.degree(shard.edge_v[i]));
      }
    }
  }
}

TEST(Partitioner, GhostAccountingMatchesRowBytes) {
  const graph::Csr dag = test_dag();
  for (const auto s : strategies()) {
    const Partitioning parts = Partitioner(s, 4, 42).partition(dag);
    std::uint64_t ghost_vertices = 0, ghost_entries = 0;
    for (const Shard& shard : parts.shards) {
      // Each ghost row costs its entries plus an 8-byte row header.
      EXPECT_EQ(shard.recv_bytes(),
                shard.ghost_entries * 4 + shard.ghost_vertices * 8);
      // Nothing is "received" from the shard itself.
      EXPECT_EQ(shard.recv_bytes_from[shard.device], 0u);
      ghost_vertices += shard.ghost_vertices;
      ghost_entries += shard.ghost_entries;
    }
    EXPECT_EQ(parts.report.ghost_vertices, ghost_vertices);
    EXPECT_EQ(parts.report.ghost_entries, ghost_entries);
    EXPECT_GE(parts.report.replication_factor, 1.0);
    EXPECT_GE(parts.report.edge_balance, 1.0);
  }
}

TEST(Partitioner, HashOwnershipIsSeededSplitMix) {
  // The partition hash is the repo's SplitMix64, not std::hash — the shard
  // layout must reproduce bit-identically on every platform.
  const graph::Csr dag = test_dag();
  const std::uint64_t seed = 42;
  const std::uint32_t n = 4;
  const Partitioning parts =
      Partitioner(PartitionStrategy::kHash, n, seed).partition(dag);
  for (const Shard& shard : parts.shards) {
    for (const std::uint32_t u : shard.anchors) {
      EXPECT_EQ(gen::SplitMix64(seed + u).next() % n, shard.device);
    }
  }
}

TEST(Partitioner, SeedMovesHashedVertices) {
  const graph::Csr dag = test_dag();
  const auto a = Partitioner(PartitionStrategy::kHash, 4, 1).partition(dag);
  const auto b = Partitioner(PartitionStrategy::kHash, 4, 2).partition(dag);
  EXPECT_NE(a.shards[0].anchors, b.shards[0].anchors);
  // Same seed reproduces the same partitioning exactly.
  const auto c = Partitioner(PartitionStrategy::kHash, 4, 1).partition(dag);
  for (std::uint32_t d = 0; d < 4; ++d) {
    EXPECT_EQ(a.shards[d].anchors, c.shards[d].anchors);
    EXPECT_EQ(a.shards[d].edge_u, c.shards[d].edge_u);
    EXPECT_EQ(a.shards[d].csr, c.shards[d].csr);
  }
}

TEST(Partitioner, PinnedShardSizesOnPaperDataset) {
  // Golden shard shapes for As-Caida (edge cap 20000, seed 42) hashed over
  // four devices: any drift in the hash, the orientation, or the generator
  // shows up here before it shows up as a miscount.
  const auto pg = framework::prepare_dataset(gen::dataset_by_name("As-Caida"),
                                             20'000, 42);
  const Partitioning parts =
      Partitioner(PartitionStrategy::kHash, 4, 42).partition(pg.dag);
  std::vector<std::uint64_t> anchor_counts, owned_edges;
  for (const Shard& shard : parts.shards) {
    anchor_counts.push_back(shard.anchors.size());
    owned_edges.push_back(shard.edge_u.size());
  }
  EXPECT_EQ(anchor_counts, (std::vector<std::uint64_t>{1745, 1839, 1855, 1802}));
  EXPECT_EQ(owned_edges, (std::vector<std::uint64_t>{4713, 5060, 5208, 5019}));
}

// --- host-aware (two-level) strategy ----------------------------------------

/// A DAG with strong id locality (vertex u points at u+1 and u+2): range
/// cuts sever almost nothing, hashing severs almost everything — the shape
/// that separates the two-level strategy from flat hashing.
graph::Csr local_dag() {
  const std::uint32_t n = 256;
  std::vector<graph::EdgeIndex> row_ptr(n + 1, 0);
  std::vector<graph::VertexId> col;
  for (std::uint32_t u = 0; u < n; ++u) {
    if (u + 1 < n) col.push_back(u + 1);
    if (u + 2 < n) col.push_back(u + 2);
    row_ptr[u + 1] = static_cast<graph::EdgeIndex>(col.size());
  }
  return graph::Csr(std::move(row_ptr), std::move(col));
}

/// Bytes shard d receives from owners on another host (device o lives on
/// host o / (n / hosts)).
std::uint64_t inter_host_bytes(const Partitioning& parts, std::uint32_t hosts) {
  const auto n = static_cast<std::uint32_t>(parts.shards.size());
  const std::uint32_t per_host = n / hosts;
  std::uint64_t bytes = 0;
  for (const Shard& s : parts.shards) {
    for (std::uint32_t o = 0; o < n; ++o) {
      if (s.device / per_host != o / per_host) bytes += s.recv_bytes_from[o];
    }
  }
  return bytes;
}

TEST(Partitioner, HostCountMustDivideDevices) {
  EXPECT_THROW(Partitioner(PartitionStrategy::kHostAware, 4, 42, 0),
               std::invalid_argument);
  EXPECT_THROW(Partitioner(PartitionStrategy::kHostAware, 4, 42, 3),
               std::invalid_argument);
  const Partitioner p(PartitionStrategy::kHostAware, 8, 42, 2);
  EXPECT_EQ(p.hosts(), 2u);
}

TEST(Partitioner, HostAwareOnOneHostDegeneratesToHash) {
  // hosts == 1: one degree-balanced block over everything, then hash within
  // it — exactly the flat hash strategy, shard for shard.
  const graph::Csr dag = test_dag();
  const auto host =
      Partitioner(PartitionStrategy::kHostAware, 4, 42, 1).partition(dag);
  const auto hash = Partitioner(PartitionStrategy::kHash, 4, 42).partition(dag);
  for (std::uint32_t d = 0; d < 4; ++d) {
    EXPECT_EQ(host.shards[d].anchors, hash.shards[d].anchors);
    EXPECT_EQ(host.shards[d].edge_u, hash.shards[d].edge_u);
    EXPECT_EQ(host.shards[d].csr, hash.shards[d].csr);
    EXPECT_EQ(host.shards[d].recv_bytes_from, hash.shards[d].recv_bytes_from);
  }
}

TEST(Partitioner, HostAwareAnchorsStayInContiguousHostRanges) {
  // Every anchor on host h must precede every anchor on host h+1: the host
  // level is a contiguous range cut (that containment is what keeps ghosts
  // of neighboring vertices on the same host).
  const graph::Csr dag = test_dag();
  const std::uint32_t hosts = 2, n = 4, per_host = n / hosts;
  const Partitioning parts =
      Partitioner(PartitionStrategy::kHostAware, n, 42, hosts).partition(dag);
  std::uint32_t host0_max = 0;
  std::uint32_t host1_min = dag.num_vertices();
  for (const Shard& s : parts.shards) {
    for (const std::uint32_t u : s.anchors) {
      if (s.device / per_host == 0) {
        host0_max = std::max(host0_max, u);
      } else {
        host1_min = std::min(host1_min, u);
      }
    }
  }
  EXPECT_LT(host0_max, host1_min);
}

TEST(Partitioner, HostAwareCutsLessInterHostTrafficThanHash) {
  const graph::Csr dag = local_dag();
  const std::uint32_t n = 4, hosts = 2;
  const auto host =
      Partitioner(PartitionStrategy::kHostAware, n, 42, hosts).partition(dag);
  const auto hash = Partitioner(PartitionStrategy::kHash, n, 42).partition(dag);
  // On a locality-friendly graph the range cut crosses hosts only at the
  // block boundary; hashing scatters neighbors across both hosts.
  EXPECT_LT(inter_host_bytes(host, hosts), inter_host_bytes(hash, hosts) / 2);
  EXPECT_GT(inter_host_bytes(host, hosts), 0u);  // the boundary still moves
}

TEST(Partitioner, RowCountsMatchTheUnbufferedMessageCount) {
  // recv_rows_from is the flat (per-row) scatter's message matrix: it must
  // count exactly the ghost rows behind recv_bytes_from, peer by peer.
  const graph::Csr dag = test_dag();
  for (const auto s : strategies()) {
    const Partitioning parts = Partitioner(s, 4, 42, 1).partition(dag);
    for (const Shard& shard : parts.shards) {
      std::uint64_t rows = 0;
      for (std::uint32_t o = 0; o < 4; ++o) {
        rows += shard.recv_rows_from[o];
        EXPECT_EQ(shard.recv_rows_from[o] > 0, shard.recv_bytes_from[o] > 0);
      }
      EXPECT_EQ(rows, shard.ghost_vertices);
      EXPECT_EQ(shard.recv_rows_from[shard.device], 0u);
    }
  }
}

TEST(Partitioner, HostAwareIsBitIdenticalAcrossOmpThreadCounts) {
  // Sharding feeds a deterministic distributed run: the same (strategy,
  // devices, seed, hosts, graph) must produce byte-identical shards no
  // matter how many OMP threads the host process runs.
  const graph::Csr dag = test_dag();
  int saved = 1;
#ifdef _OPENMP
  saved = omp_get_max_threads();
#endif
  const auto reference =
      Partitioner(PartitionStrategy::kHostAware, 8, 42, 2).partition(dag);
  for (const int threads : {1, 2, 4}) {
#ifdef _OPENMP
    omp_set_num_threads(threads);
#else
    (void)threads;
#endif
    const auto parts =
        Partitioner(PartitionStrategy::kHostAware, 8, 42, 2).partition(dag);
    for (std::uint32_t d = 0; d < 8; ++d) {
      EXPECT_EQ(parts.shards[d].anchors, reference.shards[d].anchors);
      EXPECT_EQ(parts.shards[d].edge_u, reference.shards[d].edge_u);
      EXPECT_EQ(parts.shards[d].edge_v, reference.shards[d].edge_v);
      EXPECT_EQ(parts.shards[d].csr, reference.shards[d].csr);
      EXPECT_EQ(parts.shards[d].recv_bytes_from,
                reference.shards[d].recv_bytes_from);
      EXPECT_EQ(parts.shards[d].recv_rows_from,
                reference.shards[d].recv_rows_from);
    }
  }
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
}

TEST(Partitioner, EmptyGraphShardsAreEmpty) {
  const graph::Csr empty;
  for (const auto s : strategies()) {
    const Partitioning parts = Partitioner(s, 4, 42).partition(empty);
    ASSERT_EQ(parts.shards.size(), 4u);
    for (const Shard& shard : parts.shards) {
      EXPECT_EQ(shard.edge_u.size(), 0u);
      EXPECT_TRUE(shard.anchors.empty());
      EXPECT_EQ(shard.csr.num_edges(), 0u);
    }
    EXPECT_DOUBLE_EQ(parts.report.replication_factor, 1.0);
  }
}

}  // namespace
}  // namespace tcgpu::dist
