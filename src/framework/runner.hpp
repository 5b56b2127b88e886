// Dataset preparation and validated algorithm execution — the spine of the
// unified testing framework (§IV): generate/load → clean → orient → upload
// → run → check the count against the CPU reference → collect metrics.
#pragma once

#include <cstdint>
#include <string>

#include "gen/paper_datasets.hpp"
#include "graph/cpu_reference.hpp"
#include "graph/stats.hpp"
#include "tc/common.hpp"
#include "tc/device_graph.hpp"

namespace tcgpu::framework {

struct PreparedGraph {
  std::string name;
  graph::GraphStats stats;             ///< of the cleaned undirected graph
  graph::Csr dag;                      ///< oriented, relabeled (u < v)
  std::uint64_t reference_triangles = 0;  ///< CPU forward-algorithm count
  double prepare_seconds = 0.0;        ///< clean+orient+reference wall time
  double peak_rss_mb = 0.0;  ///< host peak RSS over the prepare (0 = unknown)
};

/// Generates (with the edge cap applied), cleans, orients and reference-counts
/// one of the paper's datasets.
PreparedGraph prepare_dataset(const gen::DatasetSpec& spec,
                              std::uint64_t max_edges, std::uint64_t seed);

/// Same pipeline for an arbitrary raw edge list (loader output, tests).
/// The rvalue overload consumes the edge storage (graph::prepare_dag frees
/// it mid-pipeline, which is what keeps billion-edge peak RSS at ~2 key
/// arrays); the const& overload copies and delegates.
PreparedGraph prepare_graph(std::string name, graph::Coo&& raw);
PreparedGraph prepare_graph(std::string name, const graph::Coo& raw);

struct RunOutcome {
  std::string algorithm;
  std::string dataset;
  tc::AlgoResult result;
  bool valid = false;      ///< triangles == reference
  double host_seconds = 0; ///< simulator wall time (diagnostic only)
};

/// Uploads the DAG to a fresh device, runs the counter, validates the count.
RunOutcome run_algorithm(const tc::TriangleCounter& algo, const PreparedGraph& pg,
                         const simt::GpuSpec& spec);

/// Runs the counter against a DeviceGraph already uploaded to `dev`,
/// allocating the algorithm's scratch after it, and validates the count
/// against `pg`. Engine::run and MultiDeviceRunner::run upload a fresh
/// device (one per shard) and call this.
RunOutcome run_on_device(const tc::TriangleCounter& algo, const PreparedGraph& pg,
                         const tc::DeviceGraph& dg, simt::Device& dev,
                         const simt::GpuSpec& spec);

/// GpuSpec preset by name ("v100" or "rtx4090"); throws on anything else.
simt::GpuSpec spec_for(const std::string& gpu_name);

}  // namespace tcgpu::framework
