// Quickstart: count the triangles of a small synthetic social graph with
// GroupTC on the simulated V100, and print the count plus the profiler
// metrics the paper reports.
//
//   $ ./quickstart
//
// The same four steps work for any algorithm in the registry and any graph
// you can express as an edge list: make an engine -> prepare (clean, orient,
// reference-count; cached) -> run by algorithm name -> inspect. The engine
// keeps the prepared graph around, so further runs on the same graph skip
// the CPU pipeline; each run uploads the DAG to a fresh simulated device.
#include <cstdio>

#include "framework/engine.hpp"
#include "gen/rmat.hpp"

int main() {
  using namespace tcgpu;

  // 1. The execution engine: prepared-graph cache + per-run upload +
  //    validation, on a simulated V100 by default.
  framework::Engine engine;

  // 2. A small power-law graph (any graph::Coo works: see graph/io.hpp for
  //    loading SNAP-style edge lists from disk), cleaned + oriented (u<v
  //    DAG) + CPU-reference-counted in one call.
  gen::RmatParams params;
  params.scale = 14;
  params.edges = 100'000;
  const auto pg = engine.prepare_raw("quickstart", gen::generate_rmat(params, 7));
  std::printf("graph: %u vertices, %llu edges, avg degree %.1f\n",
              pg->stats.num_vertices,
              static_cast<unsigned long long>(pg->stats.num_undirected_edges),
              pg->stats.avg_degree);

  // 3. Run any of the nine registered algorithms by name; the run uploads
  //    the DAG to a fresh device and frees it when it returns.
  const auto outcome = engine.run("GroupTC", pg);

  // 4. Results: exact count, validated against the CPU reference, plus the
  //    nvprof-style metrics of §IV.
  std::printf("triangles: %llu (%s)\n",
              static_cast<unsigned long long>(outcome.result.triangles),
              outcome.valid ? "matches CPU reference" : "MISMATCH");
  std::printf("modeled kernel time: %.4f ms\n", outcome.result.total.time_ms);
  std::printf("global_load_requests: %llu\n",
              static_cast<unsigned long long>(
                  outcome.result.total.metrics.global_load_requests));
  std::printf("gld_transactions_per_request: %.2f\n",
              outcome.result.total.metrics.gld_transactions_per_request());
  std::printf("warp_execution_efficiency: %.1f%%\n",
              outcome.result.total.metrics.warp_execution_efficiency() * 100.0);
  return engine.exit_code();
}
