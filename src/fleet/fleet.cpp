#include "fleet/fleet.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "dist/runner.hpp"

namespace tcgpu::fleet {

namespace {

simt::ClusterSpec cluster_of(const Fleet::Config& cfg) {
  const std::uint32_t devices = std::max(1u, cfg.devices);
  if (cfg.hosts == 0 || devices % cfg.hosts != 0) {
    throw std::invalid_argument(
        "Fleet: devices must be a positive multiple of hosts");
  }
  simt::ClusterSpec cs;
  cs.hosts = cfg.hosts;
  cs.host.devices = devices / cfg.hosts;
  cs.host.intra = cfg.interconnect;
  cs.inter = cfg.inter;
  return cs;
}

}  // namespace

Fleet::Fleet(framework::Engine& engine, Config cfg)
    : engine_(engine),
      cfg_(cfg),
      cluster_(cluster_of(cfg_)),
      selector_(engine.config().spec),
      placer_(engine, selector_,
              Placer::Config{cluster_, cfg.shard_min_kernel_ms,
                             cfg.min_speedup}) {
  slots_.resize(cluster_.num_devices());
  for (std::uint32_t i = 0; i < slots_.size(); ++i) slots_[i].id = i;
}

Placement Fleet::placement_for(const ExecutionRequest& req) {
  const auto key = std::make_pair(req.key, req.version);
  {
    std::lock_guard lk(mu_);
    const auto it = placements_.find(key);
    if (it != placements_.end()) return it->second;
  }
  // Priced from the selector's pick, not the kernel the query runs, and
  // from the graph + config only (never load): the table is the same
  // whatever the arrival order, worker count or forced kernels.
  const Placement pl =
      placer_.decide(selector_.choose(req.graph->stats), req.graph->dag);
  std::lock_guard lk(mu_);
  return placements_.emplace(key, pl).first->second;
}

ExecutionOutcome Fleet::run_single(const ExecutionRequest& req) {
  ExecutionOutcome out;
  out.run = engine_.run(req.algorithm, req.graph);
  out.realized_ms = out.run.result.total.time_ms;

  // Charge the least-busy slot (ties to the lowest id).
  std::lock_guard lk(mu_);
  DeviceSlot& slot = *std::min_element(
      slots_.begin(), slots_.end(),
      [](const DeviceSlot& a, const DeviceSlot& b) { return a.busy_ms < b.busy_ms; });
  slot.busy_ms += out.run.result.total.time_ms;
  ++slot.runs;
  ++counters_.single_runs;
  return out;
}

ExecutionOutcome Fleet::run_sharded(const ExecutionRequest& req,
                                    const Placement& placement) {
  // The shape the placer priced. The serving path never pays an extra
  // baseline run.
  dist::MultiDeviceRunner runner(
      engine_, dist::MultiRunConfig{
                   dist::shard_shape(cluster_, placement.shards).value(),
                   kShardStrategy, /*measure_baseline=*/false});
  const dist::MultiRunResult mr = runner.run(req.algorithm, req.graph);

  ExecutionOutcome out;
  out.run.algorithm = mr.algorithm;
  out.run.dataset = mr.dataset;
  out.run.result.triangles = mr.triangles;
  out.run.result.total = mr.combined;
  out.run.valid = mr.valid;
  out.comm_ms = mr.comm_ms;
  out.realized_ms = mr.total_ms;

  // Charge each participating device its shard's kernel time. Binding picks
  // the least-busy slots (ties to the lowest id); it never feeds back into
  // placement, which is load-independent by contract.
  std::lock_guard lk(mu_);
  std::vector<std::uint32_t> order(slots_.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return slots_[a].busy_ms < slots_[b].busy_ms;
                   });
  const std::size_t width =
      std::min<std::size_t>(mr.devices.size(), order.size());
  for (std::size_t i = 0; i < width; ++i) {
    DeviceSlot& slot = slots_[order[i]];
    slot.busy_ms += mr.devices[i].stats.time_ms;
    ++slot.runs;
  }
  ++counters_.sharded_runs;
  return out;
}

ExecutionOutcome Fleet::execute(const ExecutionRequest& req) {
  const Placement placement = placement_for(req);
  ResultCache::Entry hit;
  if (cfg_.result_cache &&
      cache_.lookup(req.key, req.version, req.algorithm, &hit)) {
    ExecutionOutcome out;
    out.cache_hit = true;
    out.placement = placement;
    out.run.algorithm = req.algorithm;
    out.run.dataset = req.graph ? req.graph->name : req.key;
    out.run.result.triangles = hit.triangles;
    out.run.valid = hit.valid;
    std::lock_guard lk(mu_);
    ++counters_.cache_hits;
    return out;
  }

  ExecutionOutcome out =
      placement.sharded ? run_sharded(req, placement) : run_single(req);
  out.placement = placement;
  if (cfg_.result_cache) {
    cache_.store(req.key, req.version, req.algorithm,
                 ResultCache::Entry{out.run.result.triangles, out.run.valid});
  }
  return out;
}

void Fleet::invalidate(const std::string& key) {
  cache_.invalidate(key);
  engine_.invalidate(key);
  std::lock_guard lk(mu_);
  ++counters_.invalidations;
  for (auto it = placements_.lower_bound(std::make_pair(key, std::uint64_t{0}));
       it != placements_.end() && it->first.first == key;) {
    it = placements_.erase(it);
  }
}

std::vector<std::pair<std::string, std::string>> Fleet::placement_table()
    const {
  std::vector<std::pair<std::string, std::string>> out;
  std::lock_guard lk(mu_);
  out.reserve(placements_.size());
  for (const auto& [key, placement] : placements_) {
    std::string label = key.first;
    if (key.second != 0) {
      label += "@v";
      label += std::to_string(key.second);
    }
    out.emplace_back(std::move(label), placement.describe());
  }
  return out;
}

std::vector<DeviceSlot> Fleet::slots() const {
  std::lock_guard lk(mu_);
  return slots_;
}

FleetCounters Fleet::counters() const {
  std::lock_guard lk(mu_);
  return counters_;
}

}  // namespace tcgpu::fleet
