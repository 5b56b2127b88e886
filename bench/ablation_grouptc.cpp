// Ablation of GroupTC's design choices (§V): the three optimizations
// individually disabled, the chunk/block size, and the flip-ratio threshold
// of the search-table flip heuristic whose exact value the paper leaves to
// "empirical evidence". Run on a medium dataset (default As-Skitter).
// All variants share one engine-prepared graph: one prepare, one upload per run.
#include <iostream>

#include "framework/engine.hpp"
#include "framework/report.hpp"
#include "tc/grouptc.hpp"

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

  struct Variant {
    std::string name;
    tc::GroupTcCounter::Config cfg;
  };
  std::vector<Variant> variants;
  variants.push_back({"baseline (all opts, chunk 256)", {}});
  {
    tc::GroupTcCounter::Config c;
    c.prefix_skip = false;
    variants.push_back({"- opt1 (no u<v prefix skip)", c});
  }
  {
    tc::GroupTcCounter::Config c;
    c.monotone_offset = false;
    variants.push_back({"- opt2 (no monotone offset)", c});
  }
  {
    tc::GroupTcCounter::Config c;
    c.table_flip = false;
    variants.push_back({"- opt3 (no table flip)", c});
  }
  {
    tc::GroupTcCounter::Config c;
    c.prefix_skip = c.monotone_offset = c.table_flip = false;
    variants.push_back({"no optimizations", c});
  }
  for (const std::uint32_t chunk : {64u, 128u, 512u, 1024u}) {
    tc::GroupTcCounter::Config c;
    c.block = chunk;
    variants.push_back({"chunk " + std::to_string(chunk), c});
  }
  for (const std::uint32_t ratio : {2u, 8u, 16u}) {
    tc::GroupTcCounter::Config c;
    c.flip_ratio = ratio;
    variants.push_back({"flip_ratio " + std::to_string(ratio), c});
  }

  framework::ResultTable table(
      {"variant", "time_ms", "valid", "gld_requests", "warp_eff_pct"});
  for (const auto& v : variants) {
    const auto out = engine.run(tc::GroupTcCounter(v.cfg), pg);
    table.add_row({v.name, framework::ResultTable::fmt(out.result.total.time_ms, 4),
                   out.valid ? "yes" : "NO",
                   std::to_string(out.result.total.metrics.global_load_requests),
                   framework::ResultTable::fmt(
                       out.result.total.metrics.warp_execution_efficiency() * 100, 1)});
  }
  framework::emit(table, opt, std::cout,
                  "GroupTC ablation on " + dataset + " (E=" +
                      std::to_string(pg->stats.num_undirected_edges) + ")");
  return engine.exit_code();
}
