// Multi-GPU strong scaling of the ITC kernels on the simulated interconnect.
//
// Sweeps device count x partition strategy x dataset for all nine kernels:
// each cell shards the prepared DAG (src/dist/), runs the unmodified kernel
// on every shard, and reports the modeled parallel time (the buffered ghost
// scatter overlapped with each shard's kernel, then the count all-reduce),
// the speedup over the cached single-device baseline, the load imbalance
// (max/mean device kernel time) and the partition's replication cost.
//
// Defaults sweep N in {1, 2, 4, 8} devices of one host on NVLink and all
// partition strategies; --gpus=N, --partition=range|hash|2d|host and
// --interconnect=NAME pin one of each. --hosts is rejected (exit 2):
// multi-host shapes are scaling_cluster's sweep. A cell whose aggregated
// count mismatches the CPU reference is flagged with '!' and fails the run.
// Machine-readable output shares its schema with the multi-node sweep
// (scaling_schema.hpp; this bench's rows carry hosts=1 and zero inter-host
// bytes).
#include <iostream>

#include "dist/runner.hpp"
#include "framework/engine.hpp"
#include "framework/report.hpp"
#include "scaling_schema.hpp"

int main(int argc, char** argv) {
  using namespace tcgpu;
  framework::BenchOptions opt;
  try {
    opt = framework::BenchOptions::parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
  if (opt.hosts != 0) {
    std::cerr << "--hosts is not supported by scaling_multi_gpu (one host); "
                 "use scaling_cluster for multi-host shapes\n";
    return 2;
  }

  const std::vector<std::uint32_t> device_counts =
      opt.gpus ? std::vector<std::uint32_t>{opt.gpus}
               : std::vector<std::uint32_t>{1, 2, 4, 8};
  const std::vector<dist::PartitionStrategy> strategies =
      opt.partition.empty()
          ? dist::all_partition_strategies()
          : std::vector<dist::PartitionStrategy>{
                dist::partition_strategy_from_string(opt.partition)};
  const simt::InterconnectSpec link = simt::interconnect_spec_from_string(
      opt.interconnect.empty() ? "nvlink" : opt.interconnect);

  const auto& algos = framework::extended_algorithms();
  framework::Engine engine(opt);

  framework::ResultTable table(bench::scaling_columns());

  bool all_valid = true;
  for (const auto& ds : gen::paper_datasets()) {
    if (!opt.datasets.empty()) {
      bool selected = false;
      for (const auto& want : opt.datasets) selected |= want == ds.name;
      if (!selected) continue;
    }
    const auto graph = engine.prepare(ds.name);
    std::cerr << "[scaling] " << graph->name << ": V=" << graph->stats.num_vertices
              << " E=" << graph->stats.num_undirected_edges
              << " tri=" << graph->reference_triangles << '\n';

    for (const auto strategy : strategies) {
      for (const std::uint32_t n : device_counts) {
        dist::MultiDeviceRunner runner(
            engine, {simt::ClusterSpec::single_host(n, link), strategy});
        for (const auto& entry : algos) {
          const auto algo = entry.make();
          const dist::MultiRunResult r = runner.run(*algo, graph);
          all_valid &= r.valid;

          std::cerr << "  " << r.algorithm << " " << to_string(strategy) << " x"
                    << n << ": " << r.total_ms << " ms, speedup " << r.speedup
                    << ", per-device ms [";
          for (const auto& d : r.devices) {
            std::cerr << (d.device ? " " : "") << d.stats.time_ms;
          }
          std::cerr << ']' << (r.valid ? "" : "  ** COUNT MISMATCH **") << '\n';

          table.add_row(bench::scaling_row(r, link.name));
        }
      }
    }
  }

  framework::emit(table, opt, std::cout,
                  "Multi-GPU scaling (modeled " + link.name + "), " + opt.gpu +
                      ", edge cap " + std::to_string(opt.max_edges));
  if (!all_valid) {
    std::cerr << "WARNING: at least one aggregated count mismatched the CPU "
                 "reference\n";
  }
  return all_valid ? 0 : 1;
}
