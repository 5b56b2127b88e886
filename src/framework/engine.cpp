#include "framework/engine.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace tcgpu::framework {

/// One cache slot. The per-entry mutex latches concurrent prepares of the
/// same key: the first caller runs the pipeline, later callers block on the
/// mutex and then read the finished value.
struct Engine::CacheEntry {
  std::mutex m;
  GraphHandle value;
  std::list<PrepareKey>::iterator lru_it;  ///< position in Engine::lru_
};

namespace {

std::size_t resolve_workers(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::string row_header(const PreparedGraph& pg) {
  std::ostringstream os;
  os << "[sweep] " << pg.name << ": V=" << pg.stats.num_vertices
     << " E=" << pg.stats.num_undirected_edges
     << " tri=" << pg.reference_triangles << '\n';
  return os.str();
}

std::string cell_line(const std::string& algo_name, const RunOutcome& out) {
  std::ostringstream os;
  os << "  " << algo_name << ": " << out.result.total.time_ms << " ms"
     << (out.valid ? "" : "  ** COUNT MISMATCH **") << '\n';
  return os.str();
}

}  // namespace

Engine::Engine(Config cfg) : cfg_(std::move(cfg)) {
  cfg_.workers = resolve_workers(cfg_.workers);
}

Engine::Engine(const BenchOptions& opt)
    : Engine(Config{spec_for(opt.gpu), opt.max_edges, opt.seed, opt.datasets,
                    opt.jobs, opt.max_resident}) {}

Engine::GraphHandle Engine::prepare_cached(const PrepareKey& key,
                                           const gen::DatasetSpec& spec) {
  std::shared_ptr<CacheEntry> entry;
  {
    std::lock_guard lk(cache_mu_);
    auto& slot = cache_[key];
    if (!slot) {
      slot = std::make_shared<CacheEntry>();
      lru_.push_front(key);
      slot->lru_it = lru_.begin();
      // Enforce the resident cap, oldest first, never the key just added.
      // Entries mid-prepare (their latch held) are skipped, not waited on.
      if (cfg_.max_resident > 0 && cache_.size() > cfg_.max_resident) {
        std::vector<PrepareKey> victims;
        for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
          if (!(*it == key)) victims.push_back(*it);
        }
        for (const auto& victim : victims) {
          if (cache_.size() <= cfg_.max_resident) break;
          evict_locked(victim, /*force=*/false);
        }
      }
    } else {
      lru_.splice(lru_.begin(), lru_, slot->lru_it);  // touch
    }
    entry = slot;
  }
  std::lock_guard lk(entry->m);
  if (!entry->value) {
    entry->value = std::make_shared<PreparedGraph>(
        prepare_dataset(spec, key.max_edges, key.seed));
    std::lock_guard sl(stats_mu_);
    ++counters_.prepares;
  } else {
    std::lock_guard sl(stats_mu_);
    ++counters_.prepare_hits;
  }
  return entry->value;
}

Engine::GraphHandle Engine::prepare(const gen::DatasetSpec& spec) {
  return prepare_cached({spec.name, cfg_.max_edges, cfg_.seed}, spec);
}

Engine::GraphHandle Engine::prepare(const std::string& dataset_name) {
  return prepare(gen::dataset_by_name(dataset_name));
}

Engine::GraphHandle Engine::prepare_raw(std::string name, const graph::Coo& raw) {
  auto pg = std::make_shared<PreparedGraph>(
      prepare_graph(std::move(name), raw));
  std::lock_guard sl(stats_mu_);
  ++counters_.prepares;
  return pg;
}

bool Engine::evict_locked(const PrepareKey& key, bool force) {
  const auto it = cache_.find(key);
  if (it == cache_.end()) return false;
  const std::shared_ptr<CacheEntry> entry = it->second;

  // The entry latch orders us after any in-flight prepare of this key.
  // Lock ordering stays cache_mu_ -> entry->m -> stats_mu_; a preparing
  // thread holds entry->m but never takes cache_mu_.
  std::unique_lock<std::mutex> entry_lk(entry->m, std::defer_lock);
  if (force) {
    entry_lk.lock();
  } else if (!entry_lk.try_lock()) {
    return false;  // capacity sweep: skip entries mid-prepare
  }

  lru_.erase(entry->lru_it);
  cache_.erase(it);
  std::lock_guard sl(stats_mu_);
  ++counters_.evictions;
  return true;
}

bool Engine::evict(const PrepareKey& key) {
  std::lock_guard lk(cache_mu_);
  return evict_locked(key, /*force=*/true);
}

bool Engine::evict(const std::string& dataset_name) {
  return evict(PrepareKey{dataset_name, cfg_.max_edges, cfg_.seed});
}

std::size_t Engine::invalidate(const std::string& dataset_name) {
  std::lock_guard lk(cache_mu_);
  std::vector<PrepareKey> victims;
  for (const auto& [key, entry] : cache_) {
    if (key.dataset == dataset_name) victims.push_back(key);
  }
  std::size_t dropped = 0;
  for (const auto& key : victims) {
    if (evict_locked(key, /*force=*/true)) ++dropped;
  }
  return dropped;
}

std::size_t Engine::resident_graphs() const {
  std::lock_guard lk(cache_mu_);
  return cache_.size();
}

RunOutcome Engine::run(const tc::TriangleCounter& algo, const GraphHandle& graph) {
  // One device per run, like run_algorithm: concurrent cells share nothing.
  simt::Device dev;
  const tc::DeviceGraph dg = tc::DeviceGraph::upload(dev, graph->dag);
  const std::uint64_t image_bytes = dev.bytes_allocated();
  RunOutcome out = run_on_device(algo, *graph, dg, dev, cfg_.spec);
  {
    std::lock_guard sl(stats_mu_);
    ++counters_.uploads;
    counters_.bytes_uploaded += image_bytes;
    ++counters_.cells;
    if (!out.valid) all_valid_ = false;
  }
  return out;
}

RunOutcome Engine::run(const std::string& algorithm, const GraphHandle& graph) {
  return run(*make_algorithm(algorithm), graph);
}

std::vector<SweepRow> Engine::sweep(const std::vector<AlgorithmEntry>& algorithms,
                                    std::ostream& progress) {
  // Reject typos up front: a silently empty sweep would exit 0 and defeat
  // the benches' role as correctness gates.
  for (const auto& want : cfg_.datasets) {
    gen::dataset_by_name(want);  // throws std::out_of_range on unknown names
  }
  std::vector<gen::DatasetSpec> specs;
  for (const auto& ds : gen::paper_datasets()) {
    if (!cfg_.datasets.empty()) {
      bool selected = false;
      for (const auto& want : cfg_.datasets) selected |= want == ds.name;
      if (!selected) continue;
    }
    specs.push_back(ds);
  }

  const std::size_t num_rows = specs.size();
  const std::size_t num_cols = algorithms.size();
  const std::size_t num_cells = num_rows * num_cols;
  std::vector<SweepRow> rows(num_rows);
  for (auto& row : rows) row.outcomes.resize(num_cols);

  const std::size_t workers =
      std::min(cfg_.workers, std::max<std::size_t>(num_cells, 1));

  if (workers <= 1 || num_cells <= 1) {
    // Serial path: cells in row-major order, progress line per cell.
    for (std::size_t r = 0; r < num_rows; ++r) {
      rows[r].graph = prepare(specs[r]);
      progress << row_header(*rows[r].graph);
      for (std::size_t c = 0; c < num_cols; ++c) {
        const auto algo = algorithms[c].make();
        rows[r].outcomes[c] = run(*algo, rows[r].graph);
        progress << cell_line(algorithms[c].name, rows[r].outcomes[c]);
      }
    }
    return rows;
  }

  // Parallel path: cells are independent tasks; results land in
  // pre-assigned slots, so the result set is identical to the serial path.
  // Progress is buffered per cell and flushed one whole dataset at a time,
  // in paper order, once the dataset's last cell finishes.
  std::vector<std::vector<std::string>> lines(num_rows,
                                              std::vector<std::string>(num_cols));
  std::vector<std::size_t> remaining(num_rows, num_cols);
  std::vector<bool> row_done(num_rows, false);
  std::size_t flushed = 0;
  std::mutex sweep_mu;  // guards rows/lines/remaining/flushed + progress

  std::atomic<std::size_t> next_cell{0};
  std::atomic<bool> aborted{false};
  std::exception_ptr first_error;

#ifdef _OPENMP
  // Coordinate with the launcher's inner block-level parallelism: divide
  // the OpenMP budget among cell workers instead of multiplying by it.
  const int omp_budget = omp_get_max_threads();
  const int omp_per_worker =
      std::max(1, omp_budget / static_cast<int>(workers));
#endif

  auto worker = [&] {
#ifdef _OPENMP
    omp_set_num_threads(omp_per_worker);  // per-thread ICV
#endif
    for (;;) {
      const std::size_t cell = next_cell.fetch_add(1);
      if (cell >= num_cells || aborted.load()) break;
      const std::size_t r = cell / num_cols;
      const std::size_t c = cell % num_cols;
      try {
        const GraphHandle graph = prepare(specs[r]);
        const auto algo = algorithms[c].make();
        RunOutcome out = run(*algo, graph);
        std::string line = cell_line(algorithms[c].name, out);

        std::lock_guard lk(sweep_mu);
        rows[r].graph = graph;
        rows[r].outcomes[c] = std::move(out);
        lines[r][c] = std::move(line);
        if (--remaining[r] == 0) row_done[r] = true;
        while (flushed < num_rows && row_done[flushed]) {
          progress << row_header(*rows[flushed].graph);
          for (const auto& l : lines[flushed]) progress << l;
          ++flushed;
        }
      } catch (...) {
        std::lock_guard lk(sweep_mu);
        if (!aborted.exchange(true)) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (auto& t : pool) t.join();

  if (first_error) std::rethrow_exception(first_error);
  return rows;
}

bool Engine::all_valid() const {
  std::lock_guard sl(stats_mu_);
  return all_valid_;
}

EngineCounters Engine::counters() const {
  std::lock_guard sl(stats_mu_);
  return counters_;
}

}  // namespace tcgpu::framework
