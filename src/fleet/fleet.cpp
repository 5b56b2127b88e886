#include "fleet/fleet.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

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
      placer_(selector_,
              Placer::Config{cluster_, cfg.max_shards, cfg.strategy,
                             cfg.shard_min_kernel_ms, cfg.min_speedup}) {
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
  // from stats + config only (never load): the table is the same whatever
  // the arrival order, worker count or forced kernels.
  const serve::Candidate pick = selector_.choose(req.graph->stats);
  const Placement pl = placer_.decide(pick.algorithm, pick.cost, req.graph->stats);
  std::lock_guard lk(mu_);
  return placements_.emplace(key, pl).first->second;
}

dist::MultiDeviceRunner& Fleet::runner_for(std::uint32_t shards) {
  std::lock_guard lk(mu_);
  auto& runner = runners_[shards];
  if (!runner) {
    // Hosts fill in contiguous blocks, so a width runs on the fewest
    // power-of-two hosts that fit it (widths are powers of two; a
    // power-of-two host count always divides one), split evenly.
    const std::uint32_t per_host = cluster_.host.devices;
    const std::uint32_t need = (shards + per_host - 1) / per_host;
    std::uint32_t hosts = 1;
    while (hosts < need) hosts <<= 1;
    hosts = std::min(hosts, shards);
    simt::ClusterSpec cs = cluster_;
    cs.hosts = hosts;
    cs.host.devices = shards / hosts;
    // The serving path never pays an extra baseline run.
    runner = std::make_unique<dist::MultiDeviceRunner>(
        engine_, dist::MultiRunConfig{cs, cfg_.strategy,
                                      /*measure_baseline=*/false});
  }
  return *runner;
}

ExecutionOutcome Fleet::run_single(const ExecutionRequest& req) {
  ExecutionOutcome out;
  out.run = engine_.run(req.algorithm, req.graph);

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
  dist::MultiDeviceRunner& runner = runner_for(placement.shards);
  const dist::MultiRunResult mr = runner.run(req.algorithm, req.graph);

  ExecutionOutcome out;
  out.run.algorithm = mr.algorithm;
  out.run.dataset = mr.dataset;
  out.run.result.triangles = mr.triangles;
  out.run.result.total = mr.combined;
  out.run.valid = mr.valid;
  out.sharded = true;
  out.devices = placement.shards;
  out.comm_ms = mr.comm_ms;

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
  if (cfg_.result_cache) {
    ResultCache::Entry hit;
    if (cache_.lookup(req.key, req.version, req.algorithm, &hit)) {
      ExecutionOutcome out;
      out.cache_hit = true;
      out.run.algorithm = req.algorithm;
      out.run.dataset = req.graph ? req.graph->name : req.key;
      out.run.result.triangles = hit.triangles;
      out.run.valid = hit.valid;
      out.sharded = placement.sharded;
      out.devices = placement.shards;
      out.placement = placement.describe();
      std::lock_guard lk(mu_);
      ++counters_.cache_hits;
      return out;
    }
  }

  ExecutionOutcome out =
      placement.sharded ? run_sharded(req, placement) : run_single(req);
  out.placement = placement.describe();
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
