// Table II: the 19 evaluation datasets (or the --datasets selection) with
// vertices / edges / avg degree.
// Prints the paper's target numbers next to the *achieved* statistics of the
// synthetic stand-ins (computed from the generated graphs, not copied), plus
// the downscale factor applied by the edge cap. Stats and reference counts
// come from the engine's prepared-graph cache — the same pipeline (and the
// same cache entries) the figure benches consume.
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

  framework::Engine engine(opt);
  framework::ResultTable table({"dataset", "family", "paper_V", "paper_E",
                                "paper_deg", "scale", "gen_V", "gen_E", "gen_deg",
                                "triangles", "prepare_ms", "peak_rss_mb"});
  for (const auto& ds : gen::paper_datasets()) {
    if (!opt.datasets.empty()) {
      bool selected = false;
      for (const auto& want : opt.datasets) selected |= want == ds.name;
      if (!selected) continue;
    }
    const double scale = gen::dataset_scale(ds, opt.max_edges);
    const auto pg = engine.prepare(ds);
    table.add_row({ds.name, gen::to_string(ds.family),
                   std::to_string(ds.paper_vertices), std::to_string(ds.paper_edges),
                   framework::ResultTable::fmt(ds.paper_avg_degree, 1),
                   framework::ResultTable::fmt(scale, 4),
                   std::to_string(pg->stats.num_vertices),
                   std::to_string(pg->stats.num_undirected_edges),
                   framework::ResultTable::fmt(pg->stats.avg_degree, 1),
                   std::to_string(pg->reference_triangles),
                   framework::ResultTable::fmt(pg->prepare_seconds * 1000.0, 2),
                   framework::ResultTable::fmt(pg->peak_rss_mb, 1)});
  }
  const framework::CapacityReport capacity{framework::peak_rss_mb(),
                                           engine.counters().bytes_uploaded};
  framework::emit(table, opt, std::cout, capacity,
                  "Table II: datasets (paper targets vs generated stand-ins, "
                  "edge cap = " +
                      std::to_string(opt.max_edges) + ")");
  return 0;
}
