#include "fleet/fleet.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "framework/capacity.hpp"

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
      selector_(serve::Selector::Config{engine.config().spec, /*refine=*/false}),
      placer_(selector_,
              Placer::Config{cluster_, cfg.max_shards, cfg.strategy,
                             cfg.shard_min_kernel_ms, cfg.min_speedup}) {
  const std::uint32_t n = cluster_.num_devices();
  const std::uint64_t capacity =
      cfg_.device_capacity_bytes != 0
          ? cfg_.device_capacity_bytes
          : framework::device_budget_bytes(engine_.config().spec);
  slots_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    slots_[i].id = i;
    slots_[i].capacity_bytes = capacity;
  }
}

Placement Fleet::placement_for(const ExecutionRequest& req) {
  const auto key = std::make_pair(req.key, req.version);
  {
    std::lock_guard lk(mu_);
    const auto it = placements_.find(key);
    if (it != placements_.end()) return it->second;
  }
  // Latched on first decision per (graph, version) — like selector picks —
  // and computed from stats + config only (never load), so the table is
  // reproducible across worker counts and arrival orders.
  const Placement pl =
      placer_.decide(req.algorithm, req.modeled, req.graph->stats);
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
  std::uint32_t slot_id = 0;
  {
    // Bind to the slot already holding this graph's image (warm), else the
    // least-busy one (ties to the lowest id).
    std::lock_guard lk(mu_);
    const DeviceSlot* best = nullptr;
    for (const DeviceSlot& s : slots_) {
      if (s.holds(req.key)) {
        best = &s;
        break;
      }
    }
    if (best == nullptr) {
      for (const DeviceSlot& s : slots_) {
        if (best == nullptr || s.busy_ms < best->busy_ms) best = &s;
      }
    }
    slot_id = best->id;
  }

  ExecutionOutcome out;
  out.run = engine_.run(req.algorithm, req.graph);

  std::lock_guard lk(mu_);
  DeviceSlot& slot = slots_[slot_id];
  // Residency is charged only for durable images — ones whose pooled name
  // IS the request key (registry datasets, streamed heads). One-shot graphs
  // (inline queries, version-pinned snapshots) release their upload when
  // their batch ends; charging them would leave the slot holding bytes the
  // engine already freed.
  if (req.graph->name == req.key) {
    const std::uint64_t bytes = engine_.device_image_bytes(req.graph);
    if (bytes != 0) slot.admit(req.key, bytes);
  }
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
    if (cache_.lookup(req.key, req.version, req.hint, req.algorithm, &hit)) {
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
    cache_.store(req.key, req.version, req.hint, req.algorithm,
                 ResultCache::Entry{out.run.result.triangles, out.run.valid});
  }
  return out;
}

void Fleet::release(const framework::Engine::GraphHandle& graph) {
  engine_.release_device(graph);
  std::lock_guard lk(mu_);
  for (auto& [width, runner] : runners_) runner->release(graph);
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
  for (DeviceSlot& s : slots_) s.drop(key);
  for (auto& [width, runner] : runners_) runner->invalidate(key);
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

std::size_t Fleet::sharded_graphs() const {
  std::lock_guard lk(mu_);
  std::size_t n = 0;
  for (const auto& [width, runner] : runners_) n += runner->resident_graphs();
  return n;
}

FleetCounters Fleet::counters() const {
  std::lock_guard lk(mu_);
  return counters_;
}

}  // namespace tcgpu::fleet
