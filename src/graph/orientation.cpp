#include "graph/orientation.hpp"

#include <algorithm>
#include <numeric>
#include <random>

#include "graph/prepare.hpp"

namespace tcgpu::graph {

const char* to_string(OrientationPolicy p) {
  switch (p) {
    case OrientationPolicy::kByDegree:
      return "degree";
    case OrientationPolicy::kById:
      return "id";
    case OrientationPolicy::kRandom:
      return "random";
    case OrientationPolicy::kByCore:
      return "kcore";
  }
  return "?";
}

std::vector<EdgeIndex> core_numbers(const Csr& g) {
  const VertexId n = g.num_vertices();
  std::vector<EdgeIndex> degree(n), core(n, 0);
  EdgeIndex max_degree = 0;
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = g.degree(v);
    max_degree = std::max(max_degree, degree[v]);
  }
  // Bucket sort by degree (Batagelj-Zaversnik peeling).
  std::vector<VertexId> order(n), pos(n);
  std::vector<EdgeIndex> bucket_start(static_cast<std::size_t>(max_degree) + 2, 0);
  for (VertexId v = 0; v < n; ++v) bucket_start[degree[v] + 1]++;
  for (std::size_t d = 1; d < bucket_start.size(); ++d) {
    bucket_start[d] += bucket_start[d - 1];
  }
  {
    std::vector<EdgeIndex> cursor(bucket_start.begin(), bucket_start.end() - 1);
    for (VertexId v = 0; v < n; ++v) {
      pos[v] = cursor[degree[v]];
      order[pos[v]] = v;
      cursor[degree[v]]++;
    }
  }
  std::vector<EdgeIndex> cur(n);
  for (VertexId v = 0; v < n; ++v) cur[v] = degree[v];
  for (VertexId i = 0; i < n; ++i) {
    const VertexId v = order[i];
    core[v] = cur[v];
    for (const VertexId w : g.neighbors(v)) {
      if (cur[w] > cur[v]) {
        // Move w one bucket down: swap it with the first vertex of its
        // current bucket, then shrink the bucket.
        const EdgeIndex dw = cur[w];
        const EdgeIndex first_pos = bucket_start[dw];
        const VertexId first = order[first_pos];
        if (first != w) {
          std::swap(order[pos[w]], order[first_pos]);
          std::swap(pos[w], pos[first]);
        }
        bucket_start[dw]++;
        cur[w]--;
      }
    }
  }
  return core;
}

OrientedGraph orient(const Csr& undirected, OrientationPolicy policy,
                     std::uint64_t seed) {
  const VertexId n = undirected.num_vertices();
  std::vector<VertexId> order(n);  // order[rank] = old id
  std::iota(order.begin(), order.end(), VertexId{0});

  switch (policy) {
    case OrientationPolicy::kById:
      break;
    case OrientationPolicy::kByDegree:
      std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
        return undirected.degree(a) < undirected.degree(b);
      });
      break;
    case OrientationPolicy::kRandom: {
      std::mt19937_64 rng(seed);
      std::shuffle(order.begin(), order.end(), rng);
      break;
    }
    case OrientationPolicy::kByCore: {
      const std::vector<EdgeIndex> core = core_numbers(undirected);
      std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
        if (core[a] != core[b]) return core[a] < core[b];
        return undirected.degree(a) < undirected.degree(b);
      });
      break;
    }
  }

  std::vector<VertexId> rank(n);  // rank[old id] = new id
  for (VertexId r = 0; r < n; ++r) rank[order[r]] = r;

  std::vector<Edge> edges;
  edges.reserve(undirected.num_edges() / 2);
  for (VertexId u = 0; u < n; ++u) {
    const VertexId ru = rank[u];
    for (VertexId v : undirected.neighbors(u)) {
      const VertexId rv = rank[v];
      if (ru < rv) edges.emplace_back(ru, rv);
    }
  }

  OrientedGraph out;
  out.dag = build_directed_csr(n, edges);
  out.new_to_old = std::move(order);
  return out;
}

}  // namespace tcgpu::graph
