#include "dist/partition.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "gen/rng.hpp"

namespace tcgpu::dist {
namespace {

/// Per-ghost-row transfer cost: the entries plus an 8-byte (vertex id,
/// length) header the receiver needs to splice the row into its CSR.
constexpr std::uint64_t kRowHeaderBytes = 8;

std::uint32_t hash_owner(std::uint64_t seed, std::uint32_t u, std::uint32_t mod) {
  return static_cast<std::uint32_t>(gen::SplitMix64(seed + u).next() % mod);
}

/// Splits [0, V) into `parts` contiguous blocks balanced by the weight
/// prefix (size V+1, monotone). Returns the block boundaries (size parts+1).
std::vector<std::uint32_t> balanced_cuts(const std::vector<std::uint64_t>& prefix,
                                         std::uint32_t parts) {
  const auto num_vertices = static_cast<std::uint32_t>(prefix.size() - 1);
  const std::uint64_t total = prefix.back();
  std::vector<std::uint32_t> cuts(parts + 1, num_vertices);
  cuts[0] = 0;
  for (std::uint32_t k = 1; k < parts; ++k) {
    const std::uint64_t target = total * k / parts;
    const auto it = std::lower_bound(prefix.begin(), prefix.end(), target);
    const auto pos = static_cast<std::uint32_t>(it - prefix.begin());
    cuts[k] = std::max(cuts[k - 1], std::min(pos, num_vertices));
  }
  return cuts;
}

std::uint32_t block_of(const std::vector<std::uint32_t>& cuts, std::uint32_t u) {
  const auto it = std::upper_bound(cuts.begin() + 1, cuts.end(), u);
  return static_cast<std::uint32_t>(it - cuts.begin() - 1);
}

}  // namespace

std::string to_string(PartitionStrategy s) {
  switch (s) {
    case PartitionStrategy::kRange: return "range";
    case PartitionStrategy::kHash: return "hash";
    case PartitionStrategy::k2D: return "2d";
    case PartitionStrategy::kHostAware: return "host";
  }
  throw std::invalid_argument("unknown PartitionStrategy value");
}

PartitionStrategy partition_strategy_from_string(const std::string& name) {
  if (name == "range") return PartitionStrategy::kRange;
  if (name == "hash") return PartitionStrategy::kHash;
  if (name == "2d") return PartitionStrategy::k2D;
  if (name == "host") return PartitionStrategy::kHostAware;
  throw std::invalid_argument("unknown partition strategy '" + name +
                              "' (expected range|hash|2d|host)");
}

std::vector<PartitionStrategy> all_partition_strategies() {
  return {PartitionStrategy::kRange, PartitionStrategy::kHash,
          PartitionStrategy::k2D, PartitionStrategy::kHostAware};
}

std::uint64_t Shard::recv_bytes() const {
  return std::accumulate(recv_bytes_from.begin(), recv_bytes_from.end(),
                         std::uint64_t{0});
}

Partitioner::Partitioner(PartitionStrategy strategy, std::uint32_t num_devices,
                         std::uint64_t seed, std::uint32_t hosts)
    : strategy_(strategy), num_devices_(num_devices), seed_(seed), hosts_(hosts) {
  if (num_devices == 0) {
    throw std::invalid_argument("Partitioner: num_devices must be >= 1");
  }
  if (hosts == 0 || num_devices % hosts != 0) {
    throw std::invalid_argument(
        "Partitioner: num_devices must be a positive multiple of hosts");
  }
  if (strategy == PartitionStrategy::k2D) {
    // Squarest factorization rows * cols == N with rows <= cols.
    for (std::uint32_t r = 1; r * r <= num_devices; ++r) {
      if (num_devices % r == 0) grid_rows_ = r;
    }
  }
  grid_cols_ = num_devices / grid_rows_;
}

Partitioning Partitioner::partition(const graph::Csr& dag) const {
  const std::uint32_t num_vertices = dag.num_vertices();
  const std::uint64_t num_edges = dag.num_edges();
  const std::uint32_t n = num_devices_;

  Partitioning out;
  out.report.strategy = strategy_;
  out.report.num_devices = n;
  out.report.total_edges = num_edges;
  out.report.owned_edges.assign(n, 0);
  out.report.shard_entries.assign(n, 0);
  out.shards.resize(n);
  for (std::uint32_t d = 0; d < n; ++d) {
    out.shards[d].device = d;
    out.shards[d].recv_bytes_from.assign(n, 0);
    out.shards[d].recv_rows_from.assign(n, 0);
  }

  if (n == 1) {
    // Identity shard: same CSR, edge list in upload()'s CSR order, no anchor
    // list — DeviceGraph::upload_shard reproduces upload() bit for bit.
    Shard& s = out.shards[0];
    s.csr = dag;
    s.edge_u.reserve(num_edges);
    s.edge_v.reserve(num_edges);
    for (std::uint32_t u = 0; u < num_vertices; ++u) {
      for (const std::uint32_t v : dag.neighbors(u)) {
        s.edge_u.push_back(u);
        s.edge_v.push_back(v);
      }
    }
    out.report.owned_edges[0] = num_edges;
    out.report.shard_entries[0] = num_edges;
    return out;
  }

  // ---- ownership maps ------------------------------------------------------
  // Out-degree prefix drives the range strategy and the 2d row blocks.
  std::vector<std::uint64_t> deg_prefix(num_vertices + 1, 0);
  for (std::uint32_t u = 0; u < num_vertices; ++u) {
    deg_prefix[u + 1] = deg_prefix[u] + dag.degree(u);
  }

  std::vector<std::uint32_t> range_cuts, row_cuts, col_cuts, host_cuts;
  if (strategy_ == PartitionStrategy::kRange) {
    range_cuts = balanced_cuts(deg_prefix, n);
  } else if (strategy_ == PartitionStrategy::kHostAware) {
    host_cuts = balanced_cuts(deg_prefix, hosts_);
  } else if (strategy_ == PartitionStrategy::k2D) {
    row_cuts = balanced_cuts(deg_prefix, grid_rows_);
    // Column blocks balance the *destination* side: weight each vertex by
    // its in-degree so every column of devices sees a similar edge volume.
    std::vector<std::uint64_t> indeg_prefix(num_vertices + 1, 0);
    {
      std::vector<std::uint32_t> indeg(num_vertices, 0);
      for (const std::uint32_t v : dag.col()) ++indeg[v];
      for (std::uint32_t v = 0; v < num_vertices; ++v) {
        indeg_prefix[v + 1] = indeg_prefix[v] + indeg[v];
      }
    }
    col_cuts = balanced_cuts(indeg_prefix, grid_cols_);
  }

  // Home device of a vertex (owns its anchor work and its adjacency row).
  const std::uint32_t per_host = n / hosts_;
  auto vertex_owner = [&](std::uint32_t u) -> std::uint32_t {
    switch (strategy_) {
      case PartitionStrategy::kRange: return block_of(range_cuts, u);
      case PartitionStrategy::kHash: return hash_owner(seed_, u, n);
      case PartitionStrategy::k2D:
        return block_of(row_cuts, u) * grid_cols_ +
               hash_owner(seed_, u, grid_cols_);
      case PartitionStrategy::kHostAware:
        // Host by degree-balanced range (contiguous, so neighbors — and
        // their ghost rows — cluster on one host), device within the host
        // by hash (balance where the link is cheap).
        return block_of(host_cuts, u) * per_host +
               (per_host == 1 ? 0 : hash_owner(seed_, u, per_host));
    }
    return 0;
  };
  // Owner of anchor edge (u, v).
  auto edge_owner = [&](std::uint32_t u, std::uint32_t v) -> std::uint32_t {
    if (strategy_ == PartitionStrategy::k2D) {
      return block_of(row_cuts, u) * grid_cols_ + block_of(col_cuts, v);
    }
    return vertex_owner(u);
  };

  std::vector<std::uint32_t> vowner(num_vertices);
  for (std::uint32_t u = 0; u < num_vertices; ++u) vowner[u] = vertex_owner(u);

  // ---- assign work, mark the rows each device must hold --------------------
  std::vector<std::vector<char>> needs(n, std::vector<char>(num_vertices, 0));
  for (std::uint32_t u = 0; u < num_vertices; ++u) {
    const std::uint32_t a = vowner[u];
    out.shards[a].anchors.push_back(u);
    needs[a][u] = 1;
    for (const std::uint32_t v : dag.neighbors(u)) {
      needs[a][v] = 1;  // vertex-anchored probe of adj(v)
      const std::uint32_t d = edge_owner(u, v);
      out.shards[d].edge_u.push_back(u);
      out.shards[d].edge_v.push_back(v);
      needs[d][u] = 1;  // edge-anchored intersection reads both rows
      needs[d][v] = 1;
    }
  }

  // ---- materialize shard CSRs + ghost accounting ---------------------------
  for (std::uint32_t d = 0; d < n; ++d) {
    Shard& s = out.shards[d];
    s.use_anchor_list = true;

    std::vector<graph::EdgeIndex> row_ptr(num_vertices + 1, 0);
    for (std::uint32_t v = 0; v < num_vertices; ++v) {
      row_ptr[v + 1] =
          row_ptr[v] + (needs[d][v] ? dag.degree(v) : graph::EdgeIndex{0});
    }
    std::vector<graph::VertexId> col;
    col.reserve(row_ptr.back());
    for (std::uint32_t v = 0; v < num_vertices; ++v) {
      if (!needs[d][v]) continue;
      const auto nbrs = dag.neighbors(v);
      col.insert(col.end(), nbrs.begin(), nbrs.end());
      if (vowner[v] != d) {
        ++s.ghost_vertices;
        s.ghost_entries += nbrs.size();
        s.recv_bytes_from[vowner[v]] +=
            nbrs.size() * sizeof(std::uint32_t) + kRowHeaderBytes;
        ++s.recv_rows_from[vowner[v]];
      }
    }
    s.csr = graph::Csr(std::move(row_ptr), std::move(col));

    out.report.owned_edges[d] = s.edge_u.size();
    out.report.shard_entries[d] = s.csr.num_edges();
    out.report.ghost_vertices += s.ghost_vertices;
    out.report.ghost_entries += s.ghost_entries;
  }

  if (num_edges > 0) {
    const std::uint64_t total_entries =
        std::accumulate(out.report.shard_entries.begin(),
                        out.report.shard_entries.end(), std::uint64_t{0});
    out.report.replication_factor =
        static_cast<double>(total_entries) / static_cast<double>(num_edges);
    const std::uint64_t max_owned =
        *std::max_element(out.report.owned_edges.begin(),
                          out.report.owned_edges.end());
    out.report.edge_balance = static_cast<double>(max_owned) * n /
                              static_cast<double>(num_edges);
  }
  return out;
}

}  // namespace tcgpu::dist
