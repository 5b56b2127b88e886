// serve::Selector — cost-model-driven algorithm selection.
//
// The paper's core result is that no single ITC kernel wins everywhere, and
// that the per-graph winner is predicted by three factors: total work, warp
// workload imbalance, and memory-access pattern (§V). The selector turns
// that observation into the serving layer's front door: every registered
// algorithm is scored a priori from graph::GraphStats alone — no kernel is
// run to make the choice — and the query is dispatched to the argmin.
//
// The model, per algorithm:
//
//   modeled_ms = calibration
//              * spec.parallel_cycles_to_ms((work * mem)^alpha * skew^beta)
//              + spec.launch_overhead_ms(launches)
//
//   work  — intersection-method-specific operation count built from the
//           DAG stats (Σ d_out² is the wedge-count driver; merge adds the
//           partner-list scan, binary search the log factor, bitmaps the
//           build/clear term).
//   mem   — memory-access-pattern factor: hash kernels degrade as table
//           load (≈ avg out-degree / hash_load) grows and probes chain
//           through scattered sectors — this is what hands the densest
//           graphs back to merge/bitmap kernels; bitmap kernels pay 4× once
//           one bit per vertex no longer fits a block's shared memory.
//   alpha — sub-linear work exponent (< 1): caches and latency hiding
//           absorb part of the operation count; fit per algorithm.
//   skew^beta — warp-imbalance penalty: out-degree skew (max/avg) stalls
//           kernels whose unit of work is one whole adjacency list
//           (thread-per-edge Polak beta≈0.5) and barely touches
//           bucket-balanced ones (TRUST beta≈0.1).
//   launches — fixed per-kernel driver cost (Fox's degree bins pay it
//           several times).
//
// The per-algorithm (calibration, alpha, beta, hash_load) constants were
// fit against the simulator's measured kernel times over the pinned
// 19-dataset suite at the default edge cap (bench/selector_fit reports the
// residuals and regenerates the calibration column). An online refinement
// pass folds every completed run's measured KernelStats back in as an
// exact per-(algorithm, graph identity) correction: repeated queries of a
// graph score against what the kernel actually cost there, while scores
// for unseen graphs stay on the fitted constants — one noisy residual
// never perturbs the whole calibration, and the folded state is
// order-independent for a fixed workload set.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "graph/stats.hpp"
#include "simt/gpu_spec.hpp"
#include "simt/metrics.hpp"

namespace tcgpu::serve {

/// Query-time preference. kAccuracy excludes algorithms with known failure
/// modes (the paper reports H-INDEX mis-counting on large high-degree
/// graphs); kLatency and kAuto score the full registry.
enum class Hint { kAuto, kLatency, kAccuracy };

const char* to_string(Hint h);

/// The paper's three factors, as modeled for one (algorithm, graph) pair.
struct CostBreakdown {
  double work = 0.0;        ///< intersection operation count (pre-exponent)
  double imbalance = 1.0;   ///< skew^beta warp-imbalance penalty
  double mem_factor = 1.0;  ///< memory-access-pattern multiplier (>= 1)
  double launch_ms = 0.0;   ///< fixed launch-overhead term
  double modeled_ms = 0.0;  ///< total score (lower is better)
};

struct Candidate {
  std::string algorithm;
  CostBreakdown cost;
};

/// Modeled cost of applying one mutation batch to a served graph: commit the
/// incremental delta kernel (work ∝ batch size) vs recounting the whole
/// post-commit graph with a full kernel (work ∝ graph size). The serving
/// layer dispatches whichever side is cheaper; the constants are calibrated
/// so the crossover lands where bench/stream_churn measures it (As-Caida
/// flips to recount around batch 1024).
struct MutationCost {
  double delta_ms = 0.0;    ///< incremental delta-kernel commit
  double recount_ms = 0.0;  ///< full-kernel recount of the new snapshot
  bool use_delta = true;    ///< delta_ms <= recount_ms
};

/// Modeled cost of one fleet placement: run the chosen kernel across
/// `devices` shards. kernel_ms is the slowest shard (the work split is
/// even, so 1/devices of the work through the sub-linear model), comm_ms
/// the ghost scatter plus count all-reduce on the modeled interconnect.
/// hosts > 1 means the placement spills across host boundaries and part of
/// the ghost traffic was priced on the cluster's inter-host link.
struct PlacementCost {
  std::uint32_t devices = 1;
  std::uint32_t hosts = 1;
  double kernel_ms = 0.0;
  double comm_ms = 0.0;
  double total_ms = 0.0;
};

/// Static per-algorithm model parameters (see the file comment). Work names
/// one intersection family from tc/intersect/: the first four are the
/// paper's Table I strategies; the last three cover the library kernels
/// whose access patterns none of the original four shapes fit —
///   kBlockedBitmap  — merge over 32x-compressed (base, word) rows, so
///                     effective list length shrinks as density grows
///   kCompressedMerge — merge over varint delta streams: merge work plus an
///                     ALU decode surcharge that grows with the gap width
///                     (≈ log(V / d_avg) bits per neighbor), serial per
///                     thread, so skew bites hard
///   kCompressedStage — the staged variant: anchor row decoded once into
///                     shared by a single lane, partner streams decoded on
///                     the fly; same decode surcharge, milder imbalance
struct AlgoModel {
  std::string name;
  enum class Work {
    kMerge,
    kBinarySearch,
    kHash,
    kBitmap,
    kBlockedBitmap,
    kCompressedMerge,
    kCompressedStage,
  } work;
  double launches = 1.0;       ///< kernel launches per run (fixed cost)
  double work_exponent = 1.0;  ///< alpha: sub-linear work scaling
  double imb_exponent = 0.0;   ///< beta: imbalance = skew^beta
  /// Hash kernels only: table load factor scale for the collision term
  /// mem = 1 + avg_out_degree / hash_load. 0 disables the term.
  double hash_load = 0.0;
  double calibration = 1.0;    ///< fit: measured vs shaped model (v100 suite)
  bool fragile = false;        ///< excluded under Hint::kAccuracy
};

class Selector {
 public:
  struct Config {
    simt::GpuSpec spec = simt::GpuSpec::v100();
    bool refine = true;  ///< fold measured KernelStats into calibration
  };

  /// Scores the twelve-kernel selection pool (default_models()).
  Selector() : Selector(Config{}) {}
  explicit Selector(Config cfg);
  /// Custom universe (tests, restricted deployments).
  Selector(std::vector<AlgoModel> models, Config cfg);

  /// Scores every registered algorithm for this graph, ascending by
  /// modeled_ms (front = the choice). Never empty for a non-empty universe.
  std::vector<Candidate> score(const graph::GraphStats& stats,
                               Hint hint = Hint::kAuto) const;

  /// The front door: argmin of score(). Throws std::logic_error when the
  /// hint filters out every registered algorithm.
  Candidate choose(const graph::GraphStats& stats, Hint hint = Hint::kAuto) const;

  /// Online refinement: folds one completed run's measured stats back in.
  /// Ratios are keyed by (algorithm, graph identity derived from stats), so
  /// repeated queries of one graph count once and the folded state is
  /// independent of completion order.
  void observe(const std::string& algorithm, const graph::GraphStats& stats,
               const simt::KernelStats& measured);

  /// Effective refinement multiplier for scoring this graph: the exact
  /// measured/modeled ratio once the (algorithm, graph) pair has been
  /// observed, 1.0 before (unseen graphs ride the fitted calibration).
  double refinement(const std::string& algorithm,
                    const graph::GraphStats& stats) const;

  /// Number of distinct (algorithm, graph) observations folded so far.
  std::size_t observations() const;

  /// Models delta-commit vs full-kernel recount for a `batch_ops`-operation
  /// mutation batch against a graph with these stats (see MutationCost).
  MutationCost mutation_cost(const graph::GraphStats& stats,
                             std::size_t batch_ops) const;

  /// Models running `algorithm` split across `devices` even shards on a
  /// hosts x devices-per-host cluster, starting from its single-device
  /// CostBreakdown. Devices fill hosts in contiguous blocks: a placement
  /// that fits one host pays only the intra link, wider ones pay the
  /// cluster's inter-host link for the ghost share and all-reduce hops that
  /// cross a host boundary. devices == 1 returns the single-device cost with
  /// zero comm. Throws when the placement needs more hosts than the cluster
  /// has, or the cluster has no host or no device.
  PlacementCost sharded_cost(const std::string& algorithm,
                             const CostBreakdown& single, std::uint32_t devices,
                             const graph::GraphStats& stats,
                             const simt::ClusterSpec& cluster) const;

  /// Drops every folded observation for this graph identity (all
  /// algorithms). The serve layer calls it when a streamed graph's version
  /// bumps: the old ratios describe a graph that no longer exists, and the
  /// next choice must re-score from the updated GraphStats alone. Returns
  /// how many observations were dropped.
  std::size_t forget(const graph::GraphStats& stats);

  const std::vector<AlgoModel>& models() const { return models_; }
  const Config& config() const { return cfg_; }

  /// The selection pool — the paper's nine algorithms plus the three
  /// tc/intersect/ library kernels (framework::pool_algorithms()) — with
  /// the fitted v100 calibration table.
  static std::vector<AlgoModel> default_models();

 private:
  double raw_model_ms(const AlgoModel& m, const graph::GraphStats& stats,
                      CostBreakdown* out) const;

  Config cfg_;
  std::vector<AlgoModel> models_;

  mutable std::mutex mu_;  ///< guards observed_
  /// (algorithm, graph identity) -> log(measured/modeled); refinement for a
  /// graph is exp() of its own entry, clamped — exact, never cross-graph.
  std::map<std::pair<std::string, std::uint64_t>, double> observed_;
};

}  // namespace tcgpu::serve
