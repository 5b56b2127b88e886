// Serve quickstart: stand up the concurrent query service, submit a burst
// of triangle-count queries, and watch the cost model route each graph to a
// different kernel — the paper's "no single winner" result as a service.
//
//   $ ./serve_quickstart
//
// Three steps: make an engine -> wrap it in a QueryService (one admission
// queue — a fair scheduler that is a plain FIFO for a single tenant —
// worker threads, same-graph batching) -> submit QueryRequests and read the
// futures. Every reply carries the exact count, the chosen kernel with its
// modeled cost, and a per-query trace.
#include <cstdio>
#include <future>
#include <vector>

#include "serve/service.hpp"

int main() {
  using namespace tcgpu;

  // 1. Engine (graph cache + device pool) and the service on top of it.
  framework::Engine engine;
  serve::QueryService service(engine);

  // 2. The selector scores all nine registered kernels a priori from graph
  //    statistics alone. The headline matchup: GroupTC's chunked binary
  //    search wins the small sparse graphs, TRUST's bucketed hash wins once
  //    there is enough work to amortize its tables — the model reproduces
  //    the crossover without running either kernel.
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

  // 3. A concurrent burst across three graphs. Same-graph queries are
  //    batched onto one prepare/upload; each graph gets its own winner.
  std::vector<std::future<serve::QueryReply>> futures;
  for (int round = 0; round < 2; ++round) {
    for (const char* name : {"As-Caida", "Soc-Pokec", "Com-Orkut"}) {
      serve::QueryRequest req;
      req.dataset = name;
      futures.push_back(service.submit(std::move(req)));
    }
  }
  std::printf("\n%-10s %-8s %-10s %-9s %s\n", "dataset", "kernel", "triangles",
              "run ms", "total ms");
  for (auto& f : futures) {
    const auto reply = f.get();
    if (reply.status != serve::QueryStatus::kOk) {
      std::printf("%-10s FAILED: %s\n", reply.dataset.c_str(),
                  reply.error.c_str());
      continue;
    }
    std::printf("%-10s %-8s %-10llu %-9.4f %.4f\n", reply.dataset.c_str(),
                reply.algorithm.c_str(),
                static_cast<unsigned long long>(reply.triangles),
                reply.trace.run_ms(), reply.trace.total_ms());
  }

  const auto c = service.counters();
  std::printf("\nserved %llu queries in %llu prepare/upload batches\n",
              static_cast<unsigned long long>(c.served),
              static_cast<unsigned long long>(c.batches));
  return engine.exit_code();
}
