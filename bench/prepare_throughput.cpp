// Prepare-pipeline throughput benchmark: the parallel radix clean/orient
// path (graph/prepare.cpp) on one raw edge list. Reports edges/sec and the
// peak RSS of the prepare, checks the DAG it built against a pinned digest,
// and measures the compressed-vs-raw adjacency crossover: bytes and
// simulated kernel time of the varint CMerge kernel against Polak, the raw
// loop it decodes over, per dataset.
//
// Emits JSON so the perf trajectory is tracked across PRs; --check compares
// edges/sec against a checked-in baseline and fails on >25% regression (the
// CI prepare-throughput gate, mirroring bench/sim_overhead). Exit 1 on a
// digest mismatch, a failed kernel validation or a regression.
//
// Flags: --quick            smaller edge caps, CI-friendly runtimes
//        --out=PATH         write the JSON report to PATH
//        --check=PATH       compare against a baseline JSON, exit 1 on regression
//        --repeats=N        timing repeats per workload (default 3, best-of)
//        --threads=N        OMP threads for the prepare (default: all)
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
#include <string>
#include <utility>
#include <vector>

#include "framework/capacity.hpp"
#include "framework/registry.hpp"
#include "framework/runner.hpp"
#include "gen/paper_datasets.hpp"
#include "graph/csr.hpp"
#include "graph/prepare.hpp"

namespace {

using namespace tcgpu;

/// FNV-1a over the DAG's row offsets, then its column indices.
std::uint64_t dag_digest(const graph::Csr& dag) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  for (const graph::EdgeIndex x : dag.row_ptr()) mix(x);
  for (const graph::VertexId x : dag.col()) mix(x);
  return h;
}

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
  graph::Csr dag;
  {
    graph::Coo staged;
    prepares.push_back(time_prepare(
        "parallel_prepare", raw_edges, repeats, [&] { staged = raw; },
        [&] { dag = graph::prepare_dag(std::move(staged)).dag; }));
  }
  // Digest of the Com-Orkut DAG at each cap (seed 42). A change to
  // cleaning, ordering or CSR assembly that moves the DAG fails here.
  const std::uint64_t pinned =
      quick ? 0xa74a74ce4cf24bdaull : 0x94b8604e4ebcbbc0ull;
  const std::uint64_t digest = dag_digest(dag);
  if (digest != pinned) {
    std::fprintf(stderr, "prepare DAG digest %016llx != pinned %016llx\n",
                 static_cast<unsigned long long>(digest),
                 static_cast<unsigned long long>(pinned));
    return 1;
  }

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
  std::printf("dag digest %016llx  (threads=%d)\n",
              static_cast<unsigned long long>(digest), threads);
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
