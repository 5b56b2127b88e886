// The one machine-readable schema shared by the scaling benches
// (scaling_multi_gpu, scaling_cluster): both emit the same columns through
// framework::emit, so plotting and CI tooling parse one shape whether the
// sweep stayed on a single host or crossed a modeled network. Every row
// prices the same run under all four (aggregation, overlap) combinations;
// single-host rows carry hosts=1 and zero inter_bytes.
#pragma once

#include <string>
#include <vector>

#include "dist/runner.hpp"
#include "framework/table.hpp"

namespace tcgpu::bench {

inline std::vector<std::string> scaling_columns() {
  return {"dataset",        "algorithm",    "partition",  "hosts",
          "gpus",           "interconnect", "device_ms",  "comm_ms",
          "flat_sync_ms",   "flat_overlap_ms", "agg_sync_ms",
          "agg_overlap_ms", "total_ms",     "speedup",    "pipeline_speedup",
          "imbalance",      "replication",  "ghost_bytes", "inter_bytes",
          "valid"};
}

/// One row per MultiRunResult. `interconnect` labels the topology the run
/// was priced on ("nvlink", "nvlink+ib-edr", ...). pipeline_speedup is the
/// flat synchronous scatter over buffered + overlapped.
inline std::vector<std::string> scaling_row(const dist::MultiRunResult& r,
                                            const std::string& interconnect) {
  using framework::ResultTable;
  const double pipeline =
      r.agg_overlap_ms > 0.0 ? r.flat_sync_ms / r.agg_overlap_ms : 0.0;
  return {r.dataset,
          r.algorithm,
          dist::to_string(r.strategy),
          std::to_string(r.hosts),
          std::to_string(r.num_devices),
          interconnect,
          ResultTable::fmt(r.device_ms, 4),
          ResultTable::fmt(r.comm_ms, 4),
          ResultTable::fmt(r.flat_sync_ms, 4),
          ResultTable::fmt(r.flat_overlap_ms, 4),
          ResultTable::fmt(r.agg_sync_ms, 4),
          ResultTable::fmt(r.agg_overlap_ms, 4),
          ResultTable::fmt(r.total_ms, 4),
          ResultTable::fmt(r.speedup, 2),
          ResultTable::fmt(pipeline, 2),
          ResultTable::fmt(r.load_imbalance, 2),
          ResultTable::fmt(r.partition.replication_factor, 2),
          std::to_string(r.ghost_exchange.bytes),
          std::to_string(r.inter_exchange.bytes),
          r.valid ? "yes" : "NO"};
}

}  // namespace tcgpu::bench
