// Prepare-pipeline throughput benchmark: the parallel radix clean/orient
// path (graph/prepare.cpp) against a verbatim copy of the legacy serial
// pipeline it replaced, on the same raw edge lists. Reports edges/sec and
// the peak-RSS of each path (the old path materializes raw + cleaned +
// doubled undirected CSR; the new one consumes raw in place), plus the
// compressed-vs-raw adjacency crossover: bytes and simulated kernel time of
// the varint CMerge kernel against Polak, the raw loop it decodes over, per
// dataset.
//
// Emits JSON so the perf trajectory is tracked across PRs; --check compares
// edges/sec against a checked-in baseline and fails on >25% regression (the
// CI prepare-throughput gate, mirroring bench/sim_overhead).
//
// Flags: --quick            smaller edge caps, CI-friendly runtimes
//        --out=PATH         write the JSON report to PATH
//        --check=PATH       compare against a baseline JSON, exit 1 on regression
//        --repeats=N        timing repeats per workload (default 3, best-of)
//        --threads=N        OMP threads for the parallel path (default: all)
#include <omp.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#if defined(__GLIBC__)
#include <malloc.h>  // malloc_trim; __GLIBC__ set by the <c*> headers above
#endif
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "framework/capacity.hpp"
#include "framework/registry.hpp"
#include "framework/runner.hpp"
#include "gen/paper_datasets.hpp"
#include "graph/csr.hpp"
#include "graph/orientation.hpp"
#include "graph/prepare.hpp"
#include "graph/stats.hpp"

namespace {

using namespace tcgpu;

// --- the pre-radix serial pipeline, kept verbatim as the speedup yardstick --
namespace serial_baseline {

graph::Coo clean_edges(const graph::Coo& raw) {
  std::vector<graph::Edge> edges;
  edges.reserve(raw.edges.size());
  for (const auto& [u, v] : raw.edges) {
    if (u == v) continue;  // self-loop
    if (u >= raw.num_vertices || v >= raw.num_vertices) {
      throw std::invalid_argument("clean_edges: vertex id out of range");
    }
    edges.emplace_back(std::min(u, v), std::max(u, v));
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  std::vector<graph::VertexId> remap(raw.num_vertices, graph::kInvalidVertex);
  graph::VertexId next = 0;
  for (const auto& [u, v] : edges) {
    if (remap[u] == graph::kInvalidVertex) remap[u] = 0;
    if (remap[v] == graph::kInvalidVertex) remap[v] = 0;
  }
  for (graph::VertexId v = 0; v < raw.num_vertices; ++v) {
    if (remap[v] != graph::kInvalidVertex) remap[v] = next++;
  }
  for (auto& [u, v] : edges) {
    u = remap[u];
    v = remap[v];
  }

  graph::Coo out;
  out.num_vertices = next;
  out.edges = std::move(edges);
  return out;
}

graph::Csr csr_from_pairs(graph::VertexId num_vertices,
                          std::vector<graph::Edge>& pairs) {
  std::vector<graph::EdgeIndex> row_ptr(
      static_cast<std::size_t>(num_vertices) + 1, 0);
  for (const auto& [u, v] : pairs) {
    (void)v;
    row_ptr[u + 1]++;
  }
  for (std::size_t i = 1; i < row_ptr.size(); ++i) row_ptr[i] += row_ptr[i - 1];
  std::vector<graph::VertexId> col(pairs.size());
  std::vector<graph::EdgeIndex> cursor(row_ptr.begin(), row_ptr.end() - 1);
  for (const auto& [u, v] : pairs) col[cursor[u]++] = v;
  for (graph::VertexId v = 0; v < num_vertices; ++v) {
    std::sort(col.begin() + row_ptr[v], col.begin() + row_ptr[v + 1]);
  }
  return graph::Csr(std::move(row_ptr), std::move(col));
}

graph::Csr build_undirected_csr(const graph::Coo& clean) {
  std::vector<graph::Edge> pairs;
  pairs.reserve(clean.edges.size() * 2);
  for (const auto& [u, v] : clean.edges) {
    pairs.emplace_back(u, v);
    pairs.emplace_back(v, u);
  }
  return csr_from_pairs(clean.num_vertices, pairs);
}

/// The full legacy prepare: clean -> undirected CSR -> stats -> orient ->
/// DAG stats. Identical composition to the pre-overhaul framework runner.
graph::Csr prepare(const graph::Coo& raw, graph::GraphStats& stats) {
  // Qualified: graph::clean_edges / build_undirected_csr are the parallel
  // pipeline's and would otherwise be found by argument-dependent lookup.
  const graph::Coo clean = serial_baseline::clean_edges(raw);
  const graph::Csr undirected = serial_baseline::build_undirected_csr(clean);
  stats = graph::compute_stats(undirected);
  auto oriented =
      graph::orient(undirected, graph::OrientationPolicy::kByDegree);
  graph::fold_dag_stats(oriented.dag, stats);
  return std::move(oriented.dag);
}

}  // namespace serial_baseline

struct PrepareResult {
  std::string name;
  std::uint64_t edges = 0;    ///< raw input edges per run
  double seconds = 0.0;       ///< best-of-repeats wall clock
  double peak_rss_mb = 0.0;   ///< watermark delta over the first (cold) run
  double edges_per_sec() const {
    return static_cast<double>(edges) / seconds;
  }
};

/// Times one prepare closure best-of-`repeats`. `setup` runs before each
/// repeat outside the measured window (the destructive path needs its input
/// restaged; real callers move theirs in for free, so neither the clock nor
/// the RSS reading should see the restage). The peak-RSS reading is the
/// first run's watermark delta over the pre-run RSS, taken after trimming
/// the allocator — otherwise pages glibc retained from an earlier workload
/// both raise the floor and silently absorb this run's allocations.
template <class Setup, class Fn>
PrepareResult time_prepare(const std::string& name, std::uint64_t raw_edges,
                           int repeats, Setup&& setup, Fn&& run) {
  PrepareResult r;
  r.name = name;
  r.edges = raw_edges;
  r.seconds = 1e100;
  for (int i = 0; i < repeats; ++i) {
    setup();
    double floor_mb = 0.0;
    if (i == 0) {
#if defined(__GLIBC__)
      malloc_trim(0);
#endif
      framework::reset_peak_rss();
      floor_mb = framework::current_rss_mb();
    }
    const auto t0 = std::chrono::steady_clock::now();
    run();
    const auto t1 = std::chrono::steady_clock::now();
    if (i == 0) r.peak_rss_mb = framework::peak_rss_mb() - floor_mb;
    r.seconds =
        std::min(r.seconds, std::chrono::duration<double>(t1 - t0).count());
  }
  return r;
}

struct CrossoverRow {
  std::string dataset;
  std::uint64_t raw_bytes = 0;         ///< 4 B/neighbor adjacency
  std::uint64_t compressed_bytes = 0;  ///< varint delta stream
  double polak_ms = 0.0;               ///< simulated kernel time, raw CSR
  double cmerge_ms = 0.0;              ///< simulated kernel time, compressed
};

std::string to_json(const std::vector<PrepareResult>& prepares,
                    const std::vector<CrossoverRow>& crossover, int threads) {
  std::ostringstream os;
  os << "{\n  \"bench\": \"prepare_throughput\",\n  \"threads\": " << threads
     << ",\n  \"workloads\": [\n";
  for (std::size_t i = 0; i < prepares.size(); ++i) {
    const auto& r = prepares[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"edges\": %llu, \"seconds\": %.6f, "
                  "\"edges_per_sec\": %.0f, \"peak_rss_mb\": %.1f}%s\n",
                  r.name.c_str(), static_cast<unsigned long long>(r.edges),
                  r.seconds, r.edges_per_sec(), r.peak_rss_mb,
                  i + 1 < prepares.size() ? "," : "");
    os << buf;
  }
  os << "  ],\n  \"crossover\": [\n";
  for (std::size_t i = 0; i < crossover.size(); ++i) {
    const auto& c = crossover[i];
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "    {\"dataset\": \"%s\", \"raw_bytes\": %llu, "
                  "\"compressed_bytes\": %llu, \"polak_ms\": %.4f, "
                  "\"cmerge_ms\": %.4f}%s\n",
                  c.dataset.c_str(),
                  static_cast<unsigned long long>(c.raw_bytes),
                  static_cast<unsigned long long>(c.compressed_bytes),
                  c.polak_ms, c.cmerge_ms,
                  i + 1 < crossover.size() ? "," : "");
    os << buf;
  }
  os << "  ]\n}\n";
  return os.str();
}

/// Pulls "name" -> edges_per_sec pairs out of a prepare_throughput JSON
/// report. Deliberately tiny: the format is produced by to_json above.
bool parse_baseline(const std::string& path,
                    std::vector<std::pair<std::string, double>>& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    const auto name_at = line.find("\"name\": \"");
    const auto eps_at = line.find("\"edges_per_sec\": ");
    if (name_at == std::string::npos || eps_at == std::string::npos) continue;
    const auto name_begin = name_at + 9;
    const auto name_end = line.find('"', name_begin);
    if (name_end == std::string::npos) continue;
    const double eps = std::atof(line.c_str() + eps_at + 17);
    out.emplace_back(line.substr(name_begin, name_end - name_begin), eps);
  }
  return !out.empty();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int repeats = 3;
  int threads = omp_get_max_threads();
  std::string out_path;
  std::string check_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--check=", 0) == 0) {
      check_path = arg.substr(8);
    } else if (arg.rfind("--repeats=", 0) == 0) {
      repeats = std::atoi(arg.c_str() + 10);
      if (repeats < 1) repeats = 1;
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = std::atoi(arg.c_str() + 10);
      if (threads < 1) threads = 1;
    } else {
      std::cerr << "unknown flag: " << arg
                << " (valid: --quick --out=PATH --check=PATH --repeats=N "
                   "--threads=N)\n";
      return 2;
    }
  }
  omp_set_num_threads(threads);

  // The largest stand-in the edge cap admits: Com-Orkut's generator output
  // has the heaviest skew, the most duplicate collisions, and the biggest
  // working set of the suite — the case the pipeline exists for.
  const std::uint64_t cap = quick ? 200'000 : 2'000'000;
  const auto& spec = gen::dataset_by_name("Com-Orkut");
  const graph::Coo raw = gen::generate_dataset(spec, cap, 42);
  const auto raw_edges = static_cast<std::uint64_t>(raw.edges.size());

  std::vector<PrepareResult> prepares;
  graph::Csr serial_dag;
  {
    graph::GraphStats stats;
    prepares.push_back(time_prepare(
        "serial_prepare", raw_edges, repeats, [] {},
        [&] { serial_dag = serial_baseline::prepare(raw, stats); }));
  }
  graph::Csr parallel_dag;
  {
    graph::Coo staged;
    prepares.push_back(time_prepare(
        "parallel_prepare", raw_edges, repeats, [&] { staged = raw; },
        [&] {
          auto prepared = graph::prepare_dag(
              std::move(staged), graph::OrientationPolicy::kByDegree);
          parallel_dag = std::move(prepared.dag);
        }));
  }
  if (!(serial_dag == parallel_dag)) {
    std::cerr << "parallel prepare diverged from the serial baseline\n";
    return 1;
  }
  const double speedup = prepares[0].seconds / prepares[1].seconds;
  const double rss_drop =
      prepares[0].peak_rss_mb > 0.0
          ? 1.0 - prepares[1].peak_rss_mb / prepares[0].peak_rss_mb
          : 0.0;

  // Compressed-vs-raw crossover: varint decode trades extra compute for a
  // smaller adjacency stream, so CMerge gains on dense small-gap rows and
  // loses where gaps are wide. Sweep the suite's density range.
  const std::vector<std::string> sweep =
      quick ? std::vector<std::string>{"As-Caida", "Com-Orkut"}
            : std::vector<std::string>{"As-Caida", "Soc-Pokec", "Com-Orkut",
                                       "Com-Friendster"};
  const auto polak = framework::make_algorithm("Polak");
  const auto cmerge = framework::make_algorithm("CMerge");
  const simt::GpuSpec gpu = simt::GpuSpec::v100();
  std::vector<CrossoverRow> crossover;
  for (const auto& name : sweep) {
    const std::uint64_t kernel_cap = quick ? 50'000 : 100'000;
    const auto pg = framework::prepare_dataset(gen::dataset_by_name(name),
                                               kernel_cap, 42);
    CrossoverRow row;
    row.dataset = name;
    row.raw_bytes = static_cast<std::uint64_t>(pg.dag.num_edges()) * 4;
    row.compressed_bytes =
        graph::CompressedCsr::compress(pg.dag).adjacency_bytes();
    const auto pk = framework::run_algorithm(*polak, pg, gpu);
    const auto cm = framework::run_algorithm(*cmerge, pg, gpu);
    if (!pk.valid || !cm.valid) {
      std::cerr << "kernel validation failed on " << name << '\n';
      return 1;
    }
    row.polak_ms = pk.result.total.time_ms;
    row.cmerge_ms = cm.result.total.time_ms;
    crossover.push_back(row);
  }

  std::printf("%-18s %12s %10s %14s %12s\n", "workload", "edges", "sec",
              "edges/sec", "peak_rss_mb");
  for (const auto& r : prepares) {
    std::printf("%-18s %12llu %10.4f %14.0f %12.1f\n", r.name.c_str(),
                static_cast<unsigned long long>(r.edges), r.seconds,
                r.edges_per_sec(), r.peak_rss_mb);
  }
  std::printf("speedup %.2fx  peak-RSS drop %.0f%%  (threads=%d)\n", speedup,
              rss_drop * 100.0, threads);
  std::printf("%-16s %12s %12s %8s %14s %12s\n", "dataset", "raw_B", "cmp_B",
              "ratio", "polak_ms", "cmerge_ms");
  for (const auto& c : crossover) {
    std::printf("%-16s %12llu %12llu %8.2f %14.4f %12.4f\n", c.dataset.c_str(),
                static_cast<unsigned long long>(c.raw_bytes),
                static_cast<unsigned long long>(c.compressed_bytes),
                static_cast<double>(c.raw_bytes) /
                    static_cast<double>(std::max<std::uint64_t>(
                        1, c.compressed_bytes)),
                c.polak_ms, c.cmerge_ms);
  }

  const std::string json = to_json(prepares, crossover, threads);
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << json;
    if (!out) {
      std::cerr << "failed to write " << out_path << '\n';
      return 1;
    }
    std::cerr << "wrote " << out_path << '\n';
  }

  if (!check_path.empty()) {
    std::vector<std::pair<std::string, double>> baseline;
    if (!parse_baseline(check_path, baseline)) {
      std::cerr << "failed to parse baseline " << check_path << '\n';
      return 2;
    }
    constexpr double kAllowedRegression = 0.25;
    bool ok = true;
    for (const auto& [name, base_eps] : baseline) {
      const auto it =
          std::find_if(prepares.begin(), prepares.end(),
                       [&](const auto& r) { return r.name == name; });
      if (it == prepares.end()) {
        std::cerr << "baseline workload missing from run: " << name << '\n';
        ok = false;
        continue;
      }
      const double floor = base_eps * (1.0 - kAllowedRegression);
      const bool pass = it->edges_per_sec() >= floor;
      std::fprintf(
          stderr,
          "check %-18s %14.0f e/s vs baseline %14.0f (floor %14.0f) %s\n",
          name.c_str(), it->edges_per_sec(), base_eps, floor,
          pass ? "ok" : "REGRESSED");
      ok = ok && pass;
    }
    if (!ok) return 1;
  }
  return 0;
}
