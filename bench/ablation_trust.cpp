// Ablation of TRUST's degree-split heuristic (§III-H): the block/warp
// out-degree threshold (paper: 100) and the hash bucket counts
// (paper: 1024 for blocks, 32 for warps).
// All variants share one engine-prepared graph: one prepare, one upload per run.
#include <iostream>

#include "framework/engine.hpp"
#include "framework/report.hpp"
#include "tc/trust.hpp"

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
    tc::TrustCounter::Config cfg;
  };
  std::vector<Variant> variants;
  variants.push_back({"paper defaults (thr 100, 1024/32 buckets)", {}});
  for (const std::uint32_t thr : {16u, 48u, 256u, 1u << 30}) {
    tc::TrustCounter::Config c;
    c.block_threshold = thr;
    variants.push_back(
        {thr == (1u << 30) ? "warp kernel only" : "threshold " + std::to_string(thr),
         c});
  }
  for (const std::uint32_t buckets : {256u, 512u}) {
    tc::TrustCounter::Config c;
    c.block_buckets = buckets;
    variants.push_back({"block buckets " + std::to_string(buckets), c});
  }
  {
    tc::TrustCounter::Config c;
    c.warp_buckets = 16;
    c.warp_slots = 8;
    variants.push_back({"warp buckets 16", c});
  }

  framework::ResultTable table(
      {"variant", "time_ms", "valid", "gld_requests", "warp_eff_pct"});
  for (const auto& v : variants) {
    const auto out = engine.run(tc::TrustCounter(v.cfg), pg);
    table.add_row({v.name, framework::ResultTable::fmt(out.result.total.time_ms, 4),
                   out.valid ? "yes" : "NO",
                   std::to_string(out.result.total.metrics.global_load_requests),
                   framework::ResultTable::fmt(
                       out.result.total.metrics.warp_execution_efficiency() * 100, 1)});
  }
  framework::emit(table, opt, std::cout,
                  "TRUST ablation on " + dataset + " (E=" +
                      std::to_string(pg->stats.num_undirected_edges) + ")");
  return engine.exit_code();
}
