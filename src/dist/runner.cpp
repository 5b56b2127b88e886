#include "dist/runner.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "framework/registry.hpp"

namespace tcgpu::dist {

std::optional<simt::ClusterSpec> shard_shape(const simt::ClusterSpec& cluster,
                                             std::uint32_t width) {
  const std::uint32_t per_host = cluster.host.devices;
  if (width == 0 || per_host == 0) return std::nullopt;
  const std::uint32_t need = (width + per_host - 1) / per_host;
  std::uint32_t hosts = 1;
  while (hosts < need) hosts <<= 1;
  if (hosts > cluster.hosts || width % hosts != 0) return std::nullopt;
  simt::ClusterSpec shape = cluster;
  shape.hosts = hosts;
  shape.host.devices = width / hosts;
  return shape;
}

RunPricing price_run(const simt::ClusterInterconnect& net,
                     const std::vector<Shard>& shards,
                     const std::vector<double>& kernel_ms, bool aggregate) {
  const std::uint32_t n = net.num_devices();
  if (shards.size() != n || kernel_ms.size() != n) {
    throw std::invalid_argument(
        "price_run: need one shard and one kernel time per device");
  }
  std::vector<std::vector<std::uint64_t>> bytes(n), rows(n);
  for (std::uint32_t d = 0; d < n; ++d) {
    bytes[d] = shards[d].recv_bytes_from;
    rows[d] = shards[d].recv_rows_from;
  }
  RunPricing p;
  p.scatter = net.scatter(bytes, rows, aggregate);
  p.count_reduce = net.all_reduce(sizeof(std::uint64_t));
  p.comm_ms = p.scatter.total.time_ms + p.count_reduce.time_ms;
  double shards_done = 0.0;
  for (std::uint32_t d = 0; d < n; ++d) {
    shards_done = std::max(
        shards_done, std::max(p.scatter.per_device_ms[d], kernel_ms[d]));
  }
  p.overlap_ms = shards_done + p.count_reduce.time_ms;
  return p;
}

MultiDeviceRunner::MultiDeviceRunner(framework::Engine& engine,
                                     MultiRunConfig cfg)
    : engine_(engine),
      cfg_(std::move(cfg)),
      net_(cfg_.cluster, cfg_.cluster.num_devices()) {}

MultiRunResult MultiDeviceRunner::run(const tc::TriangleCounter& algo,
                                      const framework::Engine::GraphHandle& graph) {
  const simt::GpuSpec& spec = engine_.config().spec;
  const std::uint32_t n = net_.num_devices();
  const Partitioning parts =
      Partitioner(cfg_.strategy, n, engine_.config().seed, cfg_.cluster.hosts)
          .partition(graph->dag);

  MultiRunResult out;
  out.algorithm = algo.name();
  out.dataset = graph->name;
  out.num_devices = n;
  out.hosts = cfg_.cluster.hosts;
  out.strategy = cfg_.strategy;
  out.partition = parts.report;

  // ---- per-shard kernels (devices run in parallel; wall time is the max) ---
  std::vector<double> kernel_ms(n);
  for (std::uint32_t d = 0; d < n; ++d) {
    // Each shard on its own fresh device: on N == 1 this is Engine::run's
    // address stream exactly.
    const Shard& shard = parts.shards[d];
    simt::Device dev;
    const tc::DeviceGraph dg = tc::DeviceGraph::upload_shard(
        dev, shard.csr, shard.edge_u, shard.edge_v, shard.anchors,
        shard.use_anchor_list);
    const framework::RunOutcome run =
        framework::run_on_device(algo, *graph, dg, dev, spec);

    DeviceRun dr;
    dr.device = d;
    dr.triangles = run.result.triangles;
    dr.owned_edges = shard.edge_u.size();
    dr.anchor_vertices =
        shard.use_anchor_list ? shard.anchors.size() : graph->dag.num_vertices();
    dr.stats = run.result.total;
    out.triangles += dr.triangles;
    out.combined += dr.stats;
    out.device_ms = std::max(out.device_ms, dr.stats.time_ms);
    kernel_ms[d] = dr.stats.time_ms;
    out.devices.push_back(std::move(dr));
  }

  // ---- modeled communication ----------------------------------------------
  // The partitioner's per-owner traffic matrix, priced on the link each pair
  // actually crosses under both message disciplines.
  const RunPricing flat = price_run(net_, parts.shards, kernel_ms, false);
  const RunPricing agg = price_run(net_, parts.shards, kernel_ms, true);
  out.count_reduce = agg.count_reduce;
  out.ghost_exchange = agg.scatter.total;
  out.intra_exchange = agg.scatter.intra;
  out.inter_exchange = agg.scatter.inter;
  for (std::uint32_t d = 0; d < n; ++d) {
    out.devices[d].recv_ms = agg.scatter.per_device_ms[d];
  }
  out.comm_ms = agg.comm_ms;
  out.flat_sync_ms = out.device_ms + flat.comm_ms;
  out.flat_overlap_ms = flat.overlap_ms;
  out.agg_sync_ms = out.device_ms + out.comm_ms;
  out.agg_overlap_ms = agg.overlap_ms;
  out.total_ms = out.agg_overlap_ms;

  // ---- imbalance + speedup -------------------------------------------------
  double sum_ms = 0.0;
  for (const DeviceRun& dr : out.devices) sum_ms += dr.stats.time_ms;
  if (sum_ms > 0.0) out.load_imbalance = out.device_ms * n / sum_ms;
  if (cfg_.measure_baseline) {
    out.single_device_ms = engine_.run(algo, graph).result.total.time_ms;
    if (out.total_ms > 0.0) out.speedup = out.single_device_ms / out.total_ms;
  }

  out.valid = out.triangles == graph->reference_triangles;
  if (!out.valid) {
    std::lock_guard lk(mu_);
    all_valid_ = false;
  }
  return out;
}

MultiRunResult MultiDeviceRunner::run(const std::string& algorithm,
                                      const framework::Engine::GraphHandle& graph) {
  return run(*framework::make_algorithm(algorithm), graph);
}

bool MultiDeviceRunner::all_valid() const {
  std::lock_guard lk(mu_);
  return all_valid_;
}

}  // namespace tcgpu::dist
