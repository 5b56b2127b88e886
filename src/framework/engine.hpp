// The execution engine — the framework's scheduled spine (replaces the
// per-binary prepare→upload→run loops).
//
// Three layers, each shared process-wide through one Engine instance:
//
//   1. Prepared-graph cache. The CPU-side pipeline (generate → clean →
//      orient → CPU reference count) is the dominant end-to-end cost for
//      small simulated kernels, and every figure bench used to repeat it per
//      binary run. The engine keys it by (dataset, max_edges, seed) and
//      runs it once per graph per process.
//
//   2. Per-run upload. Each run uploads the graph's DAG to a fresh Device,
//      allocates its scratch after it and frees both when it returns — the
//      same prepare → upload → run → validate loop as run_algorithm, so
//      every address and metric matches it. No device image outlives the
//      run that uploaded it, so nothing needs releasing.
//
//   3. Cell scheduler. Independent (algorithm × dataset) cells run as tasks
//      over a small worker pool; the launcher's inner OpenMP threads are
//      divided among workers so the host is not oversubscribed. Every cell
//      is deterministic in isolation (integer counters, per-block cycle
//      accounting), so KernelStats from a parallel sweep are bit-identical
//      to a serial one — tested, and the property later scaling work leans
//      on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "framework/options.hpp"
#include "framework/registry.hpp"
#include "framework/runner.hpp"

namespace tcgpu::framework {

/// Cache key of one prepared graph. Two prepares with the same key are the
/// same graph; any differing field reruns the pipeline.
struct PrepareKey {
  std::string dataset;
  std::uint64_t max_edges = 0;
  std::uint64_t seed = 0;

  auto operator<=>(const PrepareKey&) const = default;
};

/// Monotonic work counters, exposed so tests can assert the once-per-graph
/// prepare guarantee (prepares == distinct graphs) and uploads == cells.
struct EngineCounters {
  std::uint64_t prepares = 0;      ///< CPU pipeline executions (cache misses)
  std::uint64_t prepare_hits = 0;  ///< prepares served from the cache
  std::uint64_t uploads = 0;       ///< DAG uploads, one per run
  std::uint64_t upload_hits = 0;   ///< always 0: no run reuses an upload
  std::uint64_t cells = 0;         ///< algorithm runs completed
  std::uint64_t evictions = 0;     ///< cache entries dropped (cap or evict())
  std::uint64_t bytes_uploaded = 0;  ///< device bytes across all uploads
};

/// One dataset of a sweep: the prepared graph and one outcome per algorithm
/// (registry order).
struct SweepRow {
  std::shared_ptr<const PreparedGraph> graph;
  std::vector<RunOutcome> outcomes;

  bool all_valid() const {
    for (const auto& out : outcomes) {
      if (!out.valid) return false;
    }
    return true;
  }
};

class Engine {
 public:
  struct Config {
    simt::GpuSpec spec = simt::GpuSpec::v100();
    std::uint64_t max_edges = 100'000;  ///< per-dataset edge cap (0 = none)
    std::uint64_t seed = 42;
    std::vector<std::string> datasets;  ///< sweep selection; empty = all 19
    std::size_t workers = 1;            ///< parallel cells; 0 = auto, 1 = serial
    /// Prepared-graph cache cap (0 = unbounded). When a prepare would push
    /// the cache past the cap, least-recently-used entries are dropped —
    /// long-running processes (the serve layer, full scaling sweeps) stay
    /// bounded. In-flight handles stay valid; re-preparing an evicted key
    /// just reruns the deterministic pipeline.
    std::size_t max_resident = 0;
  };

  Engine() : Engine(Config{}) {}
  explicit Engine(Config cfg);
  /// Spec / cap / seed / selection / workers from the parsed CLI flags.
  explicit Engine(const BenchOptions& opt);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  using GraphHandle = std::shared_ptr<const PreparedGraph>;

  /// Prepares one of the paper's datasets through the cache (runs the
  /// generate/clean/orient/reference pipeline at most once per key).
  GraphHandle prepare(const gen::DatasetSpec& spec);
  /// Same, by registry name; throws std::out_of_range on unknown names.
  GraphHandle prepare(const std::string& dataset_name);
  /// Prepares an arbitrary raw edge list (loader output, custom generators).
  /// Uncached — raw inputs have no stable identity — so the returned handle
  /// is the graph's only owner.
  GraphHandle prepare_raw(std::string name, const graph::Coo& raw);

  /// Uploads the graph to a fresh device, runs one algorithm on it and
  /// validates the count; the image is freed on return. Thread-safe; a
  /// count mismatch latches all_valid().
  RunOutcome run(const tc::TriangleCounter& algo, const GraphHandle& graph);
  /// Same, by registry name.
  RunOutcome run(const std::string& algorithm, const GraphHandle& graph);

  /// Runs every (selected dataset × algorithm) cell, parallel across cells
  /// when configured. Progress lines go to `progress` (pass std::cerr),
  /// grouped per dataset in paper order regardless of completion order.
  std::vector<SweepRow> sweep(const std::vector<AlgorithmEntry>& algorithms,
                              std::ostream& progress);

  /// Drops one prepared graph from the cache. Returns false if the key was
  /// not resident. Handles already given out keep working; the next prepare
  /// of the key reruns the pipeline.
  bool evict(const PrepareKey& key);
  /// Same for a paper dataset under this engine's cap/seed.
  bool evict(const std::string& dataset_name);
  /// Drops every cached prepare of `dataset_name` regardless of cap or
  /// seed. The stream layer calls this on a version bump
  /// so no pre-mutation prepare can be re-served from the cache. Returns
  /// how many entries were dropped.
  std::size_t invalidate(const std::string& dataset_name);
  /// Prepared graphs currently cached (≤ Config::max_resident when capped).
  std::size_t resident_graphs() const;

  /// False once any run's count mismatched the CPU reference.
  bool all_valid() const;
  /// Shell convention: 0 while all counts validated, 1 otherwise.
  int exit_code() const { return all_valid() ? 0 : 1; }

  EngineCounters counters() const;
  const Config& config() const { return cfg_; }

 private:
  struct CacheEntry;  ///< latched prepared graph (one pipeline run per key)

  GraphHandle prepare_cached(const PrepareKey& key, const gen::DatasetSpec& spec);
  /// Drops `key` under cache_mu_. `force` waits out an in-flight prepare;
  /// the capacity sweep instead skips busy entries.
  bool evict_locked(const PrepareKey& key, bool force);

  Config cfg_;

  mutable std::mutex cache_mu_;  ///< guards cache_ and lru_ shape
  std::map<PrepareKey, std::shared_ptr<CacheEntry>> cache_;
  std::list<PrepareKey> lru_;    ///< most recently used at the front

  mutable std::mutex stats_mu_;  ///< guards counters_ and all_valid_
  EngineCounters counters_;
  bool all_valid_ = true;
};

}  // namespace tcgpu::framework
