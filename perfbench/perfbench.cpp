// perfbench — the end-to-end benchmark of the tcgpu host stack.
//
// One load-generating process drives one named workload (workloads.hpp)
// through the public APIs, checks every count, and prints every end-to-end
// metric with its unit. With --trace 1 it measures the workload twice on
// the same set-up, untraced and with spans (trace.hpp), and prints the
// per-layer metrics instead; the difference between the two phases is the
// tracing overhead. The traced phase (and the traced set-up) comes last on
// odd seeds and first on even ones, so the overhead is not always "second
// minus first" on a warmed stack. End-to-end metrics always come from
// untraced phases.
//
//   perfbench --workload grid|serve_hot|serve_ingest|serve_churn
//             --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--build-id ID]
//
// Set-up runs kSetups times, each on a fresh stack, and setup_s is their
// median. The last stdout line is one JSON object with the keys correct,
// attempted, failed and metrics. Exit 0 iff every count matched its
// reference and every workload invariant held; 1 otherwise; 2 on bad flags.
// Spans of the traced phase and the grid's device-time record go to
// --out-dir. The benchmark sets no OMP_* variables: it runs with the
// environment it inherits.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kSetups = 9;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench";
  std::string build_id;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else if (flag == "--build-id") {
      a.build_id = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "grid") return std::make_unique<GridWorkload>();
  if (a.workload == "serve_hot") return std::make_unique<HotWorkload>();
  if (a.workload == "serve_ingest") return std::make_unique<IngestWorkload>(a.seed);
  if (a.workload == "serve_churn") return std::make_unique<ChurnWorkload>(a.seed);
  return nullptr;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double find(const std::vector<Metric>& ms, const std::string& name) {
  for (const auto& m : ms) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

/// The end-to-end metrics of one untraced (or, for the overhead, traced)
/// phase. ops_per_s is validated sweep cells on grid and OK replies on the
/// serve_* workloads (commits and counts together on serve_churn), per
/// second of the phase's wall time; p50_ms/p90_ms are the latency of one
/// sweep cell or one count query, as band_percentile estimates (p90: the
/// highest percentile with 10 samples beyond it on every workload).
std::vector<Metric> e2e_metrics(const PhaseResult& p, double setup_s) {
  const ClientStats& s = p.stats;
  return {
      {"setup_s", setup_s, "s"},
      {"ops_per_s", ratio(static_cast<double>(s.attempted - s.failed), p.wall_s), "1/s"},
      {"p50_ms", band_percentile(s.latency_ms.kept(), 0.50), "ms"},
      {"p90_ms", band_percentile(s.latency_ms.kept(), 0.90), "ms"},
      {"peak_rss_mb", p.peak_rss_mb, "MB"},
  };
}

const std::vector<std::string>& prepare_datasets() {
  static const std::vector<std::string> kNames = {
      "As-Caida", "Email-EuAll", "RoadNet-CA", "Web-BerkStan", "Soc-Pokec",
      "Com-Orkut", "Wiki-Talk", "Com-Dblp", "Cit-Patents"};
  return kNames;
}

/// Per-layer metrics of the traced phase `t` (untraced phase `u` for the
/// overhead and the client-side commit latency); log.setup_s[traced_setup]
/// is the traced set-up. Every workload prints every name; a layer a
/// workload bypasses reads 0.
///
/// trace.overhead.* compares one traced phase (and one traced set-up) with
/// one untraced phase (the median of the untraced set-ups) of the same run.
/// It is only readable where it exceeds the run-to-run spread of the
/// metric itself; below that it reads host noise, not tracing cost.
std::vector<Metric> layer_metrics(const std::string& workload, const PhaseResult& u,
                                  const PhaseResult& t, const SetupLog& log,
                                  std::size_t traced_setup) {
  const ClientStats& s = t.stats;
  const Counters& d = t.counters;
  const bool grid = workload == "grid";
  std::vector<Metric> out;
  const auto add = [&](std::string name, double v, std::string unit) {
    out.push_back({std::move(name), std::isfinite(v) ? v : 0.0, std::move(unit)});
  };

  // graph: per miss, timed Engine::prepare in set-up on grid, the reply's
  // prepare stage on the serve_* workloads.
  std::vector<double> prep = s.prepare_ms.kept();
  if (grid) {
    prep.clear();
    for (const auto& [ds, v] : log.prepare_ms) prep.insert(prep.end(), v.begin(), v.end());
  }
  add("graph.prepare_ms_p50", percentile(prep, 0.5), "ms");
  add("graph.prepare_ms_max", prep.empty() ? 0.0 : *std::max_element(prep.begin(), prep.end()),
      "ms");
  add("graph.prepares", static_cast<double>(d.engine.prepares), "count");
  add("graph.prepare_hit_ratio",
      ratio(static_cast<double>(d.engine.prepare_hits),
            static_cast<double>(d.engine.prepares + d.engine.prepare_hits)),
      "ratio");
  for (const auto& ds : prepare_datasets()) {
    // Slowest set-up prepare of the dataset over every repetition: the
    // OpenMP wait-policy stall shows here.
    const auto it = log.prepare_ms.find(ds);
    add("graph.prepare_ms." + ds,
        it == log.prepare_ms.end() ? 0.0 : *std::max_element(it->second.begin(), it->second.end()),
        "ms");
  }

  // framework: the engine's upload pool.
  add("engine.uploads", static_cast<double>(d.engine.uploads), "count");
  add("engine.upload_hit_ratio",
      ratio(static_cast<double>(d.engine.upload_hits),
            static_cast<double>(d.engine.uploads + d.engine.upload_hits)),
      "ratio");
  add("engine.uploaded_mb", static_cast<double>(d.engine.bytes_uploaded) / (1 << 20), "MB");
  add("engine.evictions", static_cast<double>(d.engine.evictions), "count");

  // simt+tc: host wall per kernel run, and the simulator's exact counts
  // (mean per kernel run; ×32 B per transaction = computed bytes).
  const double runs = static_cast<double>(s.kernel_runs);
  const auto& km = s.kernel_metrics;
  add("sim.run_ms_p50", percentile(s.run_ms, 0.5), "ms");
  add("sim.run_ms_p99", percentile(s.run_ms, 0.99), "ms");
  add("sim.lane_steps_per_s",
      ratio(static_cast<double>(km.active_lane_steps), s.kernel_host_total_s), "1/s");
  for (const auto& algo : fw::all_algorithms()) {
    // Per sweep on grid; over the whole traced phase elsewhere.
    const auto it = s.kernel_host_s.find(algo.name);
    const double host = it == s.kernel_host_s.end() ? 0.0 : it->second;
    add("sim.host_s." + algo.name, grid ? ratio(host, static_cast<double>(t.passes)) : host, "s");
  }
  add("sim.lane_steps", ratio(static_cast<double>(km.active_lane_steps), runs), "count");
  add("sim.warp_steps", ratio(static_cast<double>(km.warp_steps), runs), "count");
  add("sim.gld_requests", ratio(static_cast<double>(km.global_load_requests), runs), "count");
  add("sim.gld_transactions", ratio(static_cast<double>(km.global_load_transactions), runs),
      "count");

  // serve: the inner QueryService.
  add("serve.queue_ms_p50", percentile(s.queue_ms, 0.5), "ms");
  add("serve.queue_ms_p99", percentile(s.queue_ms, 0.99), "ms");
  add("serve.select_ms_p50", percentile(s.select_ms, 0.5), "ms");
  add("serve.batched_ratio",
      ratio(static_cast<double>(d.service.batched), static_cast<double>(d.service.submitted)),
      "ratio");
  add("serve.rejected", static_cast<double>(d.service.rejected), "count");
  add("serve.expired", static_cast<double>(d.service.expired), "count");
  add("serve.errors", static_cast<double>(d.service.errors), "count");

  // fleet: client latency minus the inner service's total is the
  // scheduler queue plus the dispatcher hand-off.
  const double executed =
      static_cast<double>(d.fleet.cache_hits + d.fleet.single_runs + d.fleet.sharded_runs);
  add("fleet.wait_ms_p50", percentile(s.wait_ms, 0.5), "ms");
  add("fleet.wait_ms_p99", percentile(s.wait_ms, 0.99), "ms");
  add("fleet.cache_hit_ratio", ratio(static_cast<double>(d.fleet.cache_hits), executed), "ratio");
  add("fleet.single_runs", static_cast<double>(d.fleet.single_runs), "count");
  add("fleet.sharded_runs", static_cast<double>(d.fleet.sharded_runs), "count");
  add("fleet.invalidations", static_cast<double>(d.fleet.invalidations), "count");
  add("fleet.util", ratio(d.busy_ms, t.devices * t.wall_s * 1000.0), "ratio");
  add("fleet.shed", static_cast<double>(d.shed), "count");

  // stream: commit = the mutation reply's run stage, materialize = the
  // following count's prepare stage.
  add("stream.commit_ms_p50", percentile(s.commit_run_ms, 0.5), "ms");
  add("stream.commit_ms_p99", percentile(s.commit_run_ms, 0.99), "ms");
  add("stream.materialize_ms_p50", percentile(s.materialize_ms, 0.5), "ms");
  add("stream.recounts", static_cast<double>(s.recounts), "count");
  add("stream.lane_steps",
      ratio(static_cast<double>(s.stream_lane_steps), static_cast<double>(s.commits)), "count");

  // Client-side results kept beside the layers (untraced phase).
  add("p99_ms", percentile(u.stats.latency_ms, 0.99), "ms");
  add("commit_p50_ms", percentile(u.stats.commit_ms, 0.5), "ms");
  add("commit_p99_ms", percentile(u.stats.commit_ms, 0.99), "ms");
  add("fail_ratio",
      ratio(static_cast<double>(u.stats.failed + s.failed),
            static_cast<double>(u.stats.attempted + s.attempted)),
      "ratio");
  add("device_ms", ratio(u.stats.device_ms, static_cast<double>(u.stats.device_results)), "ms");

  // Self-time shares of the client-visible time, from the spans.
  const LayerTotals& lt = s.spans.totals;
  for (const char* layer : {"graph", "framework", "sim", "serve", "fleet", "stream", "dist"}) {
    add(std::string("share.") + layer, lt.share(layer), "ratio");
  }
  add("trace.uncovered_share", ratio(lt.uncovered_ms, lt.root_ms), "ratio");

  std::vector<double> untraced_setups = log.setup_s;
  untraced_setups.erase(untraced_setups.begin() + static_cast<std::ptrdiff_t>(traced_setup));
  const auto eu = e2e_metrics(u, median(untraced_setups));
  const auto et = e2e_metrics(t, log.setup_s[traced_setup]);
  for (const auto& m : eu) add("trace.overhead." + m.name, find(et, m.name) - m.value, m.unit);
  return out;
}

void print_json(const std::vector<Metric>& metrics, bool correct, std::uint64_t attempted,
                std::uint64_t failed) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

/// Human-readable report: every end-to-end metric under its workload's
/// name, sample counts, and the measured layer shares of the run.
void print_report(const std::string& workload, const PhaseResult& p, const SetupLog& log) {
  const ClientStats& s = p.stats;
  const bool grid = workload == "grid";
  const auto e2e = e2e_metrics(p, median(log.setup_s));
  const auto& kept = s.latency_ms.kept();
  const double p99 = percentile(s.latency_ms, 0.99);
  const double beyond = static_cast<double>(
      std::count_if(kept.begin(), kept.end(), [&](double v) { return v > p99; }));
  std::printf("# workload %s: %llu ops in %.3f s\n", workload.c_str(),
              static_cast<unsigned long long>(s.attempted), p.wall_s);
  std::printf("# setup_s = %.4f s (median of", find(e2e, "setup_s"));
  for (double v : log.setup_s) std::printf(" %.4f", v);
  std::printf(")\n");
  std::printf("# %s = %.4f 1/s\n", grid ? "cells_per_s" : "qps", find(e2e, "ops_per_s"));
  std::printf("# p50_ms = %.4f ms, p90_ms = %.4f ms, p99_ms = %.4f ms "
              "(%llu samples, %zu kept, %.0f beyond p99)\n",
              find(e2e, "p50_ms"), find(e2e, "p90_ms"), p99,
              static_cast<unsigned long long>(s.latency_ms.seen()), kept.size(), beyond);
  if (s.commit_ms.seen() != 0) {
    std::printf("# commit_p50_ms = %.4f ms, commit_p99_ms = %.4f ms (%llu samples)\n",
                percentile(s.commit_ms, 0.5), percentile(s.commit_ms, 0.99),
                static_cast<unsigned long long>(s.commit_ms.seen()));
  }
  std::printf("# fail_ratio = %.6f ratio\n",
              ratio(static_cast<double>(s.failed), static_cast<double>(s.attempted)));
  std::printf("# peak_rss_mb = %.2f MB\n", p.peak_rss_mb);
  std::printf("# device_ms = %.17g ms per OK result\n",
              ratio(s.device_ms, static_cast<double>(s.device_results)));
  if (grid) {
    std::printf("# share: simulator %.4f of sweep wall time\n",
                ratio(s.kernel_host_total_s, p.wall_s));
  } else {
    std::printf("# share of service time: prepare %.4f, kernel %.4f\n",
                ratio(s.prepare_ms_sum, s.service_ms_sum), ratio(s.run_ms_sum, s.service_ms_sum));
  }
  for (const auto& e : s.errors) std::printf("# FAIL %s\n", e.c_str());
  for (const auto& v : p.violations) std::printf("# INVARIANT %s\n", v.c_str());
}

/// grid's device time must be identical across runs of one build: the first
/// run records it under --out-dir, later runs of the same --build-id compare.
void check_grid_record(const Args& a, double device_ms, std::vector<std::string>& violations) {
  if (a.build_id.empty()) return;
  const auto path = std::filesystem::path(a.out_dir) / "grid_device_ms.txt";
  std::ifstream in(path);
  std::string id, hex;
  if (in >> id >> hex && id == a.build_id) {
    if (std::strtod(hex.c_str(), nullptr) != device_ms) {
      violations.push_back("grid device time differs from an earlier run of this build");
    }
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", device_ms);
  const auto tmp = path.string() + ".tmp";
  std::ofstream(tmp) << a.build_id << ' ' << buf << '\n';
  std::filesystem::rename(tmp, path);
}

int run(const Args& a) {
  const bool traced_first = a.trace && a.seed % 2 == 0;
  const std::size_t traced_setup = traced_first ? 0 : kSetups - 1;
  SetupLog log;
  std::unique_ptr<Workload> w;
  for (std::size_t rep = 0; rep < kSetups; ++rep) {
    w.reset();
    log.traced = a.trace && rep == traced_setup;
    const auto t0 = Clock::now();
    w = make_workload(a);
    w->setup(log);
    log.setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }

  std::optional<PhaseResult> traced;
  if (traced_first) traced = w->phase(a.seconds, true);
  PhaseResult untraced = w->phase(a.seconds, false);
  if (a.trace && !traced_first) traced = w->phase(a.seconds, true);

  std::vector<std::string> violations = untraced.violations;
  std::uint64_t attempted = untraced.stats.attempted;
  std::uint64_t failed = untraced.stats.failed;
  if (traced) {
    violations.insert(violations.end(), traced->violations.begin(), traced->violations.end());
    attempted += traced->stats.attempted;
    failed += traced->stats.failed;
  }
  if (auto* grid = dynamic_cast<GridWorkload*>(w.get()); grid && grid->sweep_device_ms()) {
    std::filesystem::create_directories(a.out_dir);
    check_grid_record(a, *grid->sweep_device_ms(), violations);
  }
  untraced.violations = violations;
  print_report(a.workload, untraced, log);

  std::vector<Metric> metrics;
  if (traced) {
    metrics = layer_metrics(a.workload, untraced, *traced, log, traced_setup);
    for (const auto& m : metrics) {
      if (m.name.rfind("share.", 0) == 0 || m.name == "trace.uncovered_share") {
        std::printf("# %s = %.4f\n", m.name.c_str(), m.value);
      }
    }
    std::filesystem::create_directories(a.out_dir);
    const auto path = std::filesystem::path(a.out_dir) /
                      ("spans_" + a.workload + "_" + std::to_string(a.seed) + ".jsonl");
    std::ofstream os(path);
    write_spans(os, log.spans.kept, traced->origin);
    write_spans(os, traced->stats.spans.kept, traced->origin);
    std::printf("# spans: %llu requests traced, first %llu per client kept in %s\n",
                static_cast<unsigned long long>(traced->stats.spans.requests()),
                static_cast<unsigned long long>(SpanLog::kKeepRequests), path.c_str());
  } else {
    metrics = e2e_metrics(untraced, median(log.setup_s));
  }
  const bool correct = failed == 0 && violations.empty();
  print_json(metrics, correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    args = perfbench::parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  if (!perfbench::make_workload(args)) {
    std::fprintf(stderr,
                 "perfbench: unknown --workload '%s' (grid, serve_hot, serve_ingest, "
                 "serve_churn)\n",
                 args.workload.c_str());
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
