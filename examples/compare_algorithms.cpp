// The unified testing framework in action: run all nine algorithms on one
// of the paper's datasets and print a Figure-11-style comparison row with
// the profiling metrics of Figures 12/13. The engine prepares the dataset
// once and shares the prepared DAG across all nine runs.
//
//   $ ./compare_algorithms                         # As-Skitter, capped
//   $ ./compare_algorithms --datasets=Com-Dblp
//   $ ./compare_algorithms --max-edges=500000 --gpu=rtx4090
#include <iostream>

#include "framework/engine.hpp"
#include "framework/report.hpp"

int main(int argc, char** argv) {
  using namespace tcgpu;
  framework::BenchOptions opt;
  try {
    opt = framework::BenchOptions::parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
  const std::string dataset = opt.datasets.empty() ? "As-Skitter" : opt.datasets[0];

  framework::Engine engine(opt);
  const auto pg = engine.prepare(dataset);

  std::cout << dataset << " (scaled): V=" << pg->stats.num_vertices
            << " E=" << pg->stats.num_undirected_edges
            << " avg_deg=" << pg->stats.avg_degree
            << " triangles=" << pg->reference_triangles << "\n\n";

  framework::ResultTable table({"algorithm", "time_ms", "valid", "gld_requests",
                                "gld_tx_per_req", "warp_eff_pct"});
  for (const auto& entry : framework::all_algorithms()) {
    const auto algo = entry.make();
    const auto out = engine.run(*algo, pg);
    const auto& m = out.result.total.metrics;
    table.add_row({entry.name, framework::ResultTable::fmt(out.result.total.time_ms, 4),
                   out.valid ? "yes" : "NO",
                   std::to_string(m.global_load_requests),
                   framework::ResultTable::fmt(m.gld_transactions_per_request(), 2),
                   framework::ResultTable::fmt(m.warp_execution_efficiency() * 100, 1)});
  }
  framework::emit(table, opt, std::cout);
  return engine.exit_code();
}
