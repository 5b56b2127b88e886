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
// residuals and regenerates the calibration column). Scoring is a pure
// function of GraphStats: no measured run feeds back into it, so a graph's
// pick never depends on which queries came before it.
//
// Only count queries are scored. A mutation batch of any size commits
// through stream::DynamicGraph's one delta path, so there is nothing to
// choose between.
//
// The selector answers only "which kernel". fleet::Placer prices "across
// how many devices" on the partition each width would run, taking from
// here only the pick's score and work exponent alpha.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/stats.hpp"
#include "simt/gpu_spec.hpp"

namespace tcgpu::serve {

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
};

class Selector {
 public:
  /// Scores the twelve-kernel selection pool (default_models()).
  explicit Selector(simt::GpuSpec spec = simt::GpuSpec::v100());
  /// Custom universe (tests, restricted deployments).
  Selector(std::vector<AlgoModel> models, simt::GpuSpec spec);

  /// Scores every registered algorithm for this graph, ascending by
  /// modeled_ms (front = the choice). Never empty for a non-empty universe.
  std::vector<Candidate> score(const graph::GraphStats& stats) const;

  /// The front door: argmin of score(). Throws std::logic_error when no
  /// algorithm is registered.
  Candidate choose(const graph::GraphStats& stats) const;

  const std::vector<AlgoModel>& models() const { return models_; }

  /// The selection pool — the paper's nine algorithms plus the three
  /// tc/intersect/ library kernels (framework::pool_algorithms()) — with
  /// the fitted v100 calibration table.
  static std::vector<AlgoModel> default_models();

 private:
  CostBreakdown cost(const AlgoModel& m, const graph::GraphStats& stats) const;

  simt::GpuSpec spec_;
  std::vector<AlgoModel> models_;
};

}  // namespace tcgpu::serve
