#include "dist/runner.hpp"

#include <algorithm>
#include <utility>

#include "framework/registry.hpp"

namespace tcgpu::dist {

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
  std::vector<std::vector<std::uint64_t>> bytes(n), rows(n);
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
    bytes[d] = shard.recv_bytes_from;
    rows[d] = shard.recv_rows_from;
    out.devices.push_back(std::move(dr));
  }

  // ---- modeled communication ----------------------------------------------
  // The partitioner's per-owner traffic matrix, priced on the link each pair
  // actually crosses under both message disciplines.
  const simt::ScatterModel flat = net_.scatter(bytes, rows, /*aggregate=*/false);
  const simt::ScatterModel agg = net_.scatter(bytes, rows, /*aggregate=*/true);
  out.count_reduce = net_.all_reduce(sizeof(std::uint64_t));
  out.ghost_exchange = agg.total;
  out.intra_exchange = agg.intra;
  out.inter_exchange = agg.inter;
  for (std::uint32_t d = 0; d < n; ++d) {
    out.devices[d].recv_ms = agg.per_device_ms[d];
  }
  out.comm_ms = out.ghost_exchange.time_ms + out.count_reduce.time_ms;

  // Overlapped wall time: every shard races its kernel against its own
  // incoming scatter (owned-anchor work needs no ghosts, ghost-dependent
  // intersections schedule last), then the counts reduce.
  const auto overlapped_ms = [&](const simt::ScatterModel& m) {
    double shards_done = 0.0;
    for (std::uint32_t d = 0; d < n; ++d) {
      shards_done = std::max(
          shards_done, std::max(m.per_device_ms[d], out.devices[d].stats.time_ms));
    }
    return shards_done + out.count_reduce.time_ms;
  };
  out.flat_sync_ms =
      out.device_ms + (flat.total.time_ms + out.count_reduce.time_ms);
  out.flat_overlap_ms = overlapped_ms(flat);
  out.agg_sync_ms = out.device_ms + out.comm_ms;
  out.agg_overlap_ms = overlapped_ms(agg);
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
