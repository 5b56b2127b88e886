// Multi-node scaling of the ITC kernels on the two-level modeled cluster.
//
// Sweeps hosts x devices on the largest paper graphs: each cell shards the
// prepared DAG host-aware (dist::Partitioner kHostAware — inter-host cut
// first, intra-host balance second), runs the unmodified kernel on every
// shard, and prices the ghost scatter + count all-reduce on the two-level
// simt::ClusterInterconnect (NVLink within a host, the --interconnect
// network between). Every row reports the same run under all four
// (aggregation, overlap) combinations — flat_sync_ms is what a naive
// synchronous per-row scatter pays, agg_overlap_ms the buffered + pipelined
// path — so one sweep shows the baseline and the optimization side by side.
// pipeline_speedup = flat_sync / agg_overlap is the headline column.
//
// Defaults sweep 8 devices per host across 1, 2, 4 and 8 hosts (8..64
// devices) with BSR on Soc-Pokec and Com-Orkut; --hosts=HxD pins one
// cluster shape, --gpus=N one width at the default 8-per-host, --algos and
// --datasets the usual selections. The machine-readable output shares its
// schema with scaling_multi_gpu (scaling_schema.hpp).
//
// Bench-local flags:
//   --quick   CI shape: endpoints of the sweep only (8 and 64 devices).
//   --check   gate: exit 1 unless every count matches the CPU reference
//             AND the widest cell's buffered+overlapped time beats the flat
//             synchronous baseline by >= 2x on every swept dataset.
//
// Try: scaling_cluster --datasets=Com-Orkut --interconnect=eth10g --json
#include <algorithm>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "dist/runner.hpp"
#include "framework/engine.hpp"
#include "framework/report.hpp"
#include "scaling_schema.hpp"

int main(int argc, char** argv) {
  using namespace tcgpu;

  // --quick / --check are bench-local; strip them before the shared parser.
  bool quick = false, check = false;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--check") {
      check = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  framework::BenchOptions opt;
  try {
    opt = framework::BenchOptions::parse(static_cast<int>(args.size()),
                                         args.data());
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }

  // Cluster shapes: 8 devices per host by default, hosts doubling 1 -> 8
  // (so the sweep reaches 64 modeled devices). --hosts=HxD pins one shape,
  // --hosts=H pins the host count at 8 devices each, --gpus=N (without
  // --hosts) one width at the default per-host count.
  std::vector<simt::ClusterSpec> shapes;
  const auto inter_name = opt.interconnect.empty() ? "ib-edr" : opt.interconnect;
  simt::InterconnectSpec inter;
  try {
    inter = simt::interconnect_spec_from_string(inter_name);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
  const auto make_shape = [&](std::uint32_t hosts, std::uint32_t per_host) {
    simt::ClusterSpec cs;
    cs.name = std::to_string(hosts) + "x" + std::to_string(per_host);
    cs.hosts = hosts;
    cs.host.devices = per_host;
    cs.inter = inter;
    return cs;
  };
  if (opt.hosts != 0) {
    const std::uint32_t per_host = opt.gpus != 0 ? opt.gpus / opt.hosts : 8;
    if (per_host == 0 || (opt.gpus != 0 && opt.gpus % opt.hosts != 0)) {
      std::cerr << "--gpus must be a positive multiple of --hosts\n";
      return 2;
    }
    shapes.push_back(make_shape(opt.hosts, per_host));
  } else if (opt.gpus != 0) {
    const std::uint32_t per_host = std::min(8u, opt.gpus);
    if (opt.gpus % per_host != 0) {
      std::cerr << "--gpus must be a multiple of 8 (or < 8) without --hosts\n";
      return 2;
    }
    shapes.push_back(make_shape(opt.gpus / per_host, per_host));
  } else {
    for (const std::uint32_t hosts : {1u, 2u, 4u, 8u}) {
      if (quick && hosts != 1 && hosts != 8) continue;
      shapes.push_back(make_shape(hosts, 8));
    }
  }

  std::vector<std::string> datasets = opt.datasets;
  if (datasets.empty()) datasets = {"Soc-Pokec", "Com-Orkut"};
  std::vector<std::string> algos = opt.algos;
  if (algos.empty()) algos = {"BSR"};
  const dist::PartitionStrategy strategy =
      opt.partition.empty() ? dist::PartitionStrategy::kHostAware
                            : dist::partition_strategy_from_string(opt.partition);

  framework::Engine engine(opt);
  framework::ResultTable table(bench::scaling_columns());

  bool all_valid = true;
  // Widest cell's flat_sync / agg_overlap per dataset (the --check subject).
  std::map<std::string, double> widest_pipeline;
  std::uint32_t widest = 0;
  for (const auto& cs : shapes) widest = std::max(widest, cs.num_devices());

  for (const auto& name : datasets) {
    const auto graph = engine.prepare(name);
    std::cerr << "[cluster] " << graph->name
              << ": V=" << graph->stats.num_vertices
              << " E=" << graph->stats.num_undirected_edges
              << " tri=" << graph->reference_triangles << '\n';

    for (const auto& cs : shapes) {
      dist::MultiDeviceRunner runner(engine, {cs, strategy});
      const std::string topology =
          cs.hosts > 1 ? cs.host.intra.name + "+" + cs.inter.name
                       : cs.host.intra.name;
      for (const auto& algo : algos) {
        const dist::MultiRunResult r = runner.run(algo, graph);
        all_valid &= r.valid;
        const double pipeline =
            r.agg_overlap_ms > 0.0 ? r.flat_sync_ms / r.agg_overlap_ms : 0.0;
        if (r.num_devices == widest) {
          auto& worst = widest_pipeline.try_emplace(graph->name, pipeline)
                            .first->second;
          worst = std::min(worst, pipeline);
        }

        std::cerr << "  " << r.algorithm << " " << cs.name << " ("
                  << topology << "): flat_sync " << r.flat_sync_ms
                  << " ms -> agg_overlap " << r.agg_overlap_ms << " ms ("
                  << pipeline << "x), speedup " << r.speedup
                  << (r.valid ? "" : "  ** COUNT MISMATCH **") << '\n';

        table.add_row(bench::scaling_row(r, topology));
      }
    }
  }

  framework::emit(table, opt, std::cout,
                  "Multi-node cluster scaling (modeled " + inter_name +
                      " between hosts), " + opt.gpu + ", edge cap " +
                      std::to_string(opt.max_edges));

  int rc = 0;
  if (!all_valid) {
    std::cerr << "CHECK FAIL: at least one aggregated count mismatched the "
                 "CPU reference\n";
    rc = 1;
  }
  if (check) {
    for (const auto& [name, pipeline] : widest_pipeline) {
      if (widest > 1 && pipeline < 2.0) {
        std::cerr << "CHECK FAIL: " << name << " at " << widest
                  << " devices: buffered+overlapped beats flat synchronous "
                     "by only "
                  << pipeline << "x (< 2x)\n";
        rc = 1;
      }
    }
    if (rc == 0) {
      std::cerr << "CHECK OK: all counts exact";
      if (widest > 1) {
        std::cerr << "; >= 2x pipeline speedup at " << widest << " devices";
      }
      std::cerr << '\n';
    }
  }
  return rc;
}
