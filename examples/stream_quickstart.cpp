// Streaming quickstart: mutate a served graph and keep exact counts
// without ever re-running a full counting kernel.
//
//   $ ./stream_quickstart
//
// A QueryRequest can carry edge inserts/removals for a named dataset. The
// first mutation moves the dataset onto a stream::DynamicGraph; each batch
// commits as one delta (only wedges incident to the touched endpoints are
// re-intersected, on the simulated GPU), bumps the dataset's version, and
// invalidates every stale layer — the engine's cached prepares, the
// materialized snapshot, and the cached results and placements. Count
// queries then answer against the current version, and the selector picks
// their kernel from the new version's stats.
#include <cstdio>
#include <future>

#include "serve/service.hpp"

int main() {
  using namespace tcgpu;

  framework::Engine engine;
  serve::QueryService service(engine);
  const char* dataset = "As-Caida";

  // 1. Baseline count at version 0 (the static serve path).
  serve::QueryRequest count;
  count.dataset = dataset;
  auto before = service.submit(std::move(count)).get();
  std::printf("v%llu: %llu triangles via %s\n",
              static_cast<unsigned long long>(before.version),
              static_cast<unsigned long long>(before.triangles),
              before.algorithm.c_str());

  // 2. A mutation batch: close one wedge, drop one edge. The reply carries
  //    the exact delta — no kernel rerun, just the touched wedges.
  serve::QueryRequest mutate;
  mutate.dataset = dataset;
  mutate.insert_edges = {{1, 2}, {2, 3}, {1, 3}};
  mutate.remove_edges = {{0, 5}};
  auto delta = service.submit(std::move(mutate)).get();
  std::printf("v%llu: delta %+lld -> %llu triangles (%s)\n",
              static_cast<unsigned long long>(delta.version),
              static_cast<long long>(delta.delta_triangles),
              static_cast<unsigned long long>(delta.triangles),
              to_string(delta.status));

  // 3. Counting again answers from the new version's snapshot: the DAG is
  //    materialized once per version, the selector re-scores from the
  //    updated stats, and the full kernel run agrees with the maintained
  //    count.
  serve::QueryRequest recount;
  recount.dataset = dataset;
  auto after = service.submit(std::move(recount)).get();
  std::printf("v%llu: %llu triangles via %s (valid=%s)\n",
              static_cast<unsigned long long>(after.version),
              static_cast<unsigned long long>(after.triangles),
              after.algorithm.c_str(), after.valid ? "yes" : "NO");

  const bool exact = after.valid && after.triangles == delta.triangles;
  std::printf("maintained count %s the full kernel rerun\n",
              exact ? "matches" : "DOES NOT match");
  service.shutdown();
  return exact && engine.exit_code() == 0 ? 0 : 1;
}
