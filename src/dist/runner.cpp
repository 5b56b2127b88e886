#include "dist/runner.hpp"

#include <algorithm>

#include "framework/registry.hpp"

namespace tcgpu::dist {

/// One pooled multi-device image: the partitioning plus each shard uploaded
/// to its own device. Marks record the post-upload allocation state so
/// per-run scratch continues each shard's address layout — on N == 1 that
/// reproduces the single-device engine's address stream exactly.
struct MultiDeviceRunner::ShardSet {
  std::mutex m;
  bool ready = false;
  framework::Engine::GraphHandle keepalive;
  Partitioning parts;
  std::vector<std::unique_ptr<simt::Device>> devices;
  std::vector<tc::DeviceGraph> graphs;
  std::vector<simt::Device::Mark> marks;
};

MultiDeviceRunner::MultiDeviceRunner(framework::Engine& engine,
                                     MultiRunConfig cfg)
    : engine_(engine),
      cfg_(std::move(cfg)),
      net_(cfg_.cluster, cfg_.cluster.num_devices()) {}

std::shared_ptr<MultiDeviceRunner::ShardSet> MultiDeviceRunner::acquire_shards(
    const framework::Engine::GraphHandle& graph) {
  std::shared_ptr<ShardSet> set;
  {
    std::lock_guard lk(pool_mu_);
    auto& slot = pool_[graph.get()];
    if (!slot) slot = std::make_shared<ShardSet>();
    set = slot;
  }
  std::lock_guard lk(set->m);
  if (!set->ready) {
    set->keepalive = graph;
    const Partitioner p(cfg_.strategy, net_.num_devices(),
                        engine_.config().seed, cfg_.cluster.hosts);
    set->parts = p.partition(graph->dag);
    for (const Shard& s : set->parts.shards) {
      auto dev = std::make_unique<simt::Device>();
      set->graphs.push_back(tc::DeviceGraph::upload_shard(
          *dev, s.csr, s.edge_u, s.edge_v, s.anchors, s.use_anchor_list));
      set->marks.push_back(dev->mark());
      set->devices.push_back(std::move(dev));
    }
    set->ready = true;
  }
  return set;
}

double MultiDeviceRunner::baseline_ms(const tc::TriangleCounter& algo,
                                      const framework::Engine::GraphHandle& graph) {
  const auto key = std::make_pair(
      static_cast<const framework::PreparedGraph*>(graph.get()), algo.name());
  {
    std::lock_guard lk(baseline_mu_);
    const auto it = baselines_.find(key);
    if (it != baselines_.end()) return it->second;
  }
  const double ms = engine_.run(algo, graph).result.total.time_ms;
  std::lock_guard lk(baseline_mu_);
  return baselines_.emplace(key, ms).first->second;
}

MultiRunResult MultiDeviceRunner::run(const tc::TriangleCounter& algo,
                                      const framework::Engine::GraphHandle& graph) {
  const auto set = acquire_shards(graph);
  const simt::GpuSpec& spec = engine_.config().spec;
  const std::uint32_t n = net_.num_devices();

  MultiRunResult out;
  out.algorithm = algo.name();
  out.dataset = graph->name;
  out.num_devices = n;
  out.hosts = cfg_.cluster.hosts;
  out.strategy = cfg_.strategy;
  out.partition = set->parts.report;

  // ---- per-shard kernels (devices run in parallel; wall time is the max) ---
  std::vector<std::vector<std::uint64_t>> bytes(n), rows(n);
  for (std::uint32_t d = 0; d < n; ++d) {
    const Shard& shard = set->parts.shards[d];
    simt::Device scratch(set->marks[d].next_base);
    const framework::RunOutcome run = framework::run_on_device(
        algo, *graph, set->graphs[d], scratch, spec);

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
    out.single_device_ms = baseline_ms(algo, graph);
    if (out.total_ms > 0.0) out.speedup = out.single_device_ms / out.total_ms;
  }

  out.valid = out.triangles == graph->reference_triangles;
  if (!out.valid) {
    std::lock_guard lk(baseline_mu_);
    all_valid_ = false;
  }
  return out;
}

MultiRunResult MultiDeviceRunner::run(const std::string& algorithm,
                                      const framework::Engine::GraphHandle& graph) {
  return run(*framework::make_algorithm(algorithm), graph);
}

bool MultiDeviceRunner::all_valid() const {
  std::lock_guard lk(baseline_mu_);
  return all_valid_;
}

}  // namespace tcgpu::dist
