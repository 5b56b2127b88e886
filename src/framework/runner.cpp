#include "framework/runner.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "framework/capacity.hpp"
#include "graph/prepare.hpp"

namespace tcgpu::framework {

PreparedGraph prepare_graph(std::string name, graph::Coo&& raw) {
  PreparedGraph pg;
  pg.name = std::move(name);
  const bool rss_isolated = reset_peak_rss();
  const auto t0 = std::chrono::steady_clock::now();
  auto prepared = graph::prepare_dag(std::move(raw));
  pg.stats = prepared.stats;
  pg.dag = std::move(prepared.dag);
  pg.reference_triangles = graph::count_triangles_forward_parallel(pg.dag);
  const auto t1 = std::chrono::steady_clock::now();
  pg.prepare_seconds = std::chrono::duration<double>(t1 - t0).count();
  // Without watermark reset this reports the process high-water mark — an
  // upper bound on the prepare, still a valid capacity ceiling.
  pg.peak_rss_mb = peak_rss_mb();
  (void)rss_isolated;
  return pg;
}

PreparedGraph prepare_graph(std::string name, const graph::Coo& raw) {
  graph::Coo copy = raw;
  return prepare_graph(std::move(name), std::move(copy));
}

PreparedGraph prepare_dataset(const gen::DatasetSpec& spec, std::uint64_t max_edges,
                              std::uint64_t seed) {
  graph::Coo raw = gen::generate_dataset(spec, max_edges, seed);
  return prepare_graph(spec.name, std::move(raw));
}

simt::GpuSpec spec_for(const std::string& gpu_name) {
  if (gpu_name == "v100") return simt::GpuSpec::v100();
  if (gpu_name == "rtx4090") return simt::GpuSpec::rtx4090();
  throw std::invalid_argument("unknown GPU preset: " + gpu_name);
}

RunOutcome run_on_device(const tc::TriangleCounter& algo, const PreparedGraph& pg,
                         const tc::DeviceGraph& dg, simt::Device& dev,
                         const simt::GpuSpec& spec) {
  RunOutcome out;
  out.algorithm = algo.name();
  out.dataset = pg.name;

  const auto t0 = std::chrono::steady_clock::now();
  out.result = algo.count(dev, spec, dg);
  const auto t1 = std::chrono::steady_clock::now();
  out.host_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.valid = out.result.triangles == pg.reference_triangles;
  return out;
}

RunOutcome run_algorithm(const tc::TriangleCounter& algo, const PreparedGraph& pg,
                         const simt::GpuSpec& spec) {
  simt::Device dev;
  const tc::DeviceGraph dg = tc::DeviceGraph::upload(dev, pg.dag);
  return run_on_device(algo, pg, dg, dev, spec);
}

}  // namespace tcgpu::framework
