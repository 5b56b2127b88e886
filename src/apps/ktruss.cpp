#include <algorithm>
#include "apps/ktruss.hpp"

#include "graph/prepare.hpp"
#include "simt/device.hpp"
#include "tc/support.hpp"

namespace tcgpu::apps {

KTrussResult ktruss_decompose(const graph::Csr& dag, const simt::GpuSpec& spec,
                              std::uint32_t chunk) {
  KTrussResult result;
  result.trussness.assign(dag.num_edges(), 2);

  // Live edge set, carrying each edge's id in the input DAG.
  struct LiveEdge {
    graph::VertexId u, v;
    std::uint32_t original;
  };
  std::vector<LiveEdge> live;
  live.reserve(dag.num_edges());
  {
    std::uint32_t e = 0;
    for (graph::VertexId u = 0; u < dag.num_vertices(); ++u) {
      for (const graph::VertexId v : dag.neighbors(u)) live.push_back({u, v, e++});
    }
  }

  for (std::uint32_t k = 3; !live.empty(); ++k) {
    bool removed_any = true;
    while (removed_any && !live.empty()) {
      // Rebuild the surviving DAG and recompute support on the device.
      std::vector<graph::Edge> edges;
      edges.reserve(live.size());
      for (const auto& le : live) edges.emplace_back(le.u, le.v);
      const graph::Csr sub = graph::build_directed_csr(dag.num_vertices(), edges);

      simt::Device dev;
      const tc::DeviceGraph dg = tc::DeviceGraph::upload(dev, sub);
      auto support = dev.alloc<std::uint32_t>(dg.num_edges, "ktruss_support");
      const auto sr = tc::count_edge_support(dev, spec, dg, support, chunk);
      result.gpu_stats += sr.stats;
      result.peel_rounds++;

      // The rebuilt CSR reorders edges; map (u,v)->support back onto `live`
      // by walking both in the same (u, v) sorted order.
      std::vector<std::uint32_t> order(live.size());
      for (std::uint32_t i = 0; i < live.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
        if (live[a].u != live[b].u) return live[a].u < live[b].u;
        return live[a].v < live[b].v;
      });

      std::vector<LiveEdge> next;
      next.reserve(live.size());
      removed_any = false;
      for (std::uint32_t pos = 0; pos < order.size(); ++pos) {
        const LiveEdge& le = live[order[pos]];
        if (support.host_data()[pos] + 2 < k) {
          result.trussness[le.original] = k - 1;
          removed_any = true;
        } else {
          next.push_back(le);
        }
      }
      live = std::move(next);
    }
    if (!live.empty()) {
      result.max_k = k;
      for (const auto& le : live) result.trussness[le.original] = k;
    }
  }
  return result;
}

std::vector<std::uint32_t> ktruss_edges(const KTrussResult& r, std::uint32_t k) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t e = 0; e < r.trussness.size(); ++e) {
    if (r.trussness[e] >= k) out.push_back(e);
  }
  return out;
}

}  // namespace tcgpu::apps
