// Serve quickstart: stand up the concurrent query service, submit a burst
// of triangle-count queries, and watch the cost model route each graph to a
// different kernel — the paper's "no single winner" result as a service.
//
//   $ ./serve_quickstart
//
// Three steps: make an engine -> wrap it in a QueryService (one admission
// queue — a fair scheduler that is a plain FIFO for a single tenant —
// worker threads, same-graph batching, and a one-device fleet that runs
// the kernels and caches their results) -> submit QueryRequests and read
// the futures. Every reply carries the exact count, the chosen kernel with
// its modeled cost, whether the result cache answered it, and a per-query
// trace.
#include <cstdio>
#include <future>
#include <vector>

#include "serve/service.hpp"

int main() {
  using namespace tcgpu;

  // 1. Engine (graph cache + device pool) and the service on top of it.
  framework::Engine engine;
  serve::QueryService service(engine);

  // 2. The selector scores all twelve kernels of the selection pool a
  //    priori from graph statistics alone. The headline matchup: GroupTC's
  //    chunked binary search wins the small sparse graphs, TRUST's bucketed
  //    hash wins once there is enough work to amortize its tables — the
  //    model reproduces the crossover without running either kernel.
  for (const char* name : {"As-Caida", "Web-BerkStan"}) {
    const auto& stats = engine.prepare(name)->stats;
    std::printf("%s (n=%u, avg degree %.1f):\n", name, stats.num_vertices,
                stats.avg_out_degree);
    for (const auto& c : service.selector().score(stats)) {
      if (c.algorithm == "GroupTC" || c.algorithm == "TRUST") {
        std::printf("  %-8s modeled %.4f ms\n", c.algorithm.c_str(),
                    c.cost.modeled_ms);
      }
    }
  }

  // 3. A concurrent burst across three graphs, sent twice. Same-graph
  //    queries are batched onto one prepare/upload and each graph gets its
  //    own winner; the second round is answered from the result cache
  //    without running a kernel.
  std::printf("\n%-6s %-10s %-8s %-10s %-6s %s\n", "round", "dataset",
              "kernel", "triangles", "cache", "total ms");
  for (int round = 1; round <= 2; ++round) {
    std::vector<std::future<serve::QueryReply>> futures;
    for (const char* name : {"As-Caida", "Soc-Pokec", "Com-Orkut"}) {
      serve::QueryRequest req;
      req.dataset = name;
      futures.push_back(service.submit(std::move(req)));
    }
    for (auto& f : futures) {
      const auto reply = f.get();
      if (reply.status != serve::QueryStatus::kOk) {
        std::printf("%-6d %-10s FAILED: %s\n", round, reply.dataset.c_str(),
                    reply.error.c_str());
        continue;
      }
      std::printf("%-6d %-10s %-8s %-10llu %-6s %.4f\n", round,
                  reply.dataset.c_str(), reply.algorithm.c_str(),
                  static_cast<unsigned long long>(reply.triangles),
                  reply.cache_hit ? "hit" : "miss", reply.trace.total_ms());
    }
  }

  const auto c = service.counters();
  std::printf("\nserved %llu queries in %llu prepare/upload batches\n",
              static_cast<unsigned long long>(c.served),
              static_cast<unsigned long long>(c.batches));
  return engine.exit_code();
}
