// Closed-loop load generator for serve::QueryService — and, with --fleet,
// for the fleet::FleetService stack on top of it.
//
// Legacy mode (no --fleet): two phases. Warmup issues one query per distinct
// dataset serially, in fixed order — this pins the service's decision table
// (sticky picks), so selector decisions and triangle counts are reproducible
// run-to-run no matter how the timed phase's threads interleave. The table
// is printed, and --check-picks=ds:algo,... turns it into a CI regression
// gate (exit 3 on any drift). The timed phase then runs N closed-loop
// clients round-robining the same datasets for a fixed number of queries,
// and reports p50/p95/p99 end-to-end latency and QPS.
//
// Fleet mode (--fleet): sweeps the modeled device count (M = 1,2,4,8, or
// just --gpus=N) running closed-loop mixed traffic — a "small" tenant on
// light graphs, a "huge" tenant on the heavyweights, a "mut" tenant
// committing mutation batches — through the service's scheduler -> fleet.
// Warmup pins both the decision table and the placement table;
// --check-placements=ds:placement,... gates placements like --check-picks
// (exit 3 on drift; requires --gpus since placements depend on M). At M=1
// the fleet's warmup picks and counts are asserted bit-identical to a plain
// backend-less QueryService (exit 4 on mismatch). Reports per-M utilization,
// QPS and latency percentiles, plus per-tenant goodput.
//
// Try: serve_throughput --datasets=As-Caida,Soc-Pokec,Com-Orkut
//        --clients=4 --queries=120
//      serve_throughput --fleet --gpus=4 --queries=120
#include <algorithm>
#include <atomic>
#include <chrono>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "fleet/service.hpp"
#include "framework/engine.hpp"
#include "framework/report.hpp"
#include "serve/service.hpp"

namespace {

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Parses "key:value,..." gate strings (--check-placements). Splits at the
/// FIRST colon — dataset names contain none, but placement values do
/// ("shard4:range"). Returns false on a malformed entry.
bool parse_gate(const std::string& spec,
                std::vector<std::pair<std::string, std::string>>* out) {
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const auto colon = item.find(':');
    if (colon == std::string::npos) return false;
    out->emplace_back(item.substr(0, colon), item.substr(colon + 1));
  }
  return true;
}

/// One closed-loop tenant of the fleet workload.
struct TenantLoad {
  std::string name;
  std::vector<std::string> datasets;  ///< round-robined (count queries)
  std::uint64_t queries = 0;
  std::size_t threads = 1;
  bool mutate = false;  ///< issue mutation batches instead of counts
};

int fleet_main(const tcgpu::framework::BenchOptions& opt) {
  using namespace tcgpu;

  std::vector<std::uint32_t> fleet_sizes;
  if (opt.gpus != 0) {
    fleet_sizes.push_back(opt.gpus);
  } else {
    fleet_sizes = {1, 2, 4, 8};
  }
  if (!opt.check_placements.empty() && opt.gpus == 0) {
    std::cerr << "--check-placements requires --gpus=N (placements depend on "
                 "the fleet size)\n";
    return 2;
  }
  if (opt.hosts > 1 && opt.gpus == 0) {
    std::cerr << "--hosts requires --gpus=N in fleet mode (every swept fleet "
                 "size must be a multiple of the host count)\n";
    return 2;
  }
  if (opt.hosts > 1 && opt.gpus % opt.hosts != 0) {
    std::cerr << "--gpus must be a multiple of --hosts, got " << opt.gpus
              << " over " << opt.hosts << '\n';
    return 2;
  }

  // Mixed traffic shape. Defaults pick light graphs for the small tenant,
  // heavyweights for the huge one, and a mutating dataset that is NOT in
  // either pool, so churn-driven invalidation never perturbs the pinned
  // pick/placement tables. --datasets overrides both count pools (first
  // half small, second half huge) and disables the mutation tenant.
  std::vector<std::string> smalls, huges;
  std::string mut_dataset;
  if (opt.datasets.empty()) {
    smalls = {"As-Caida", "Email-EuAll"};
    huges = {"Soc-Pokec", "Com-Orkut"};
    mut_dataset = "Wiki-Talk";
  } else {
    const std::size_t half = (opt.datasets.size() + 1) / 2;
    smalls.assign(opt.datasets.begin(), opt.datasets.begin() + half);
    huges.assign(opt.datasets.begin() + half, opt.datasets.end());
  }
  std::vector<std::string> warmup_order = smalls;
  warmup_order.insert(warmup_order.end(), huges.begin(), huges.end());

  const std::size_t clients = opt.clients == 0 ? 4 : opt.clients;
  const std::uint64_t total_queries = opt.queries == 0 ? 120 : opt.queries;

  // M=1 reference: the plain backend-less service's warmup picks/counts,
  // for the bit-identity gate.
  std::map<std::string, std::pair<std::string, std::uint64_t>> reference;
  {
    framework::Engine ref_engine(opt);
    serve::QueryService::Config rc;
    rc.workers = 1;
    serve::QueryService ref_service(ref_engine, rc);
    for (const auto& name : warmup_order) {
      serve::QueryRequest req;
      req.dataset = name;
      auto reply = ref_service.submit(std::move(req)).get();
      if (reply.status != serve::QueryStatus::kOk) {
        std::cerr << "reference warmup for '" << name
                  << "' failed: " << to_string(reply.status) << " "
                  << reply.error << '\n';
        return 2;
      }
      reference[name] = {reply.algorithm, reply.triangles};
    }
    ref_service.shutdown();
  }

  framework::ResultTable sweep({"devices", "queries", "ok", "shed", "util",
                                "qps", "p50_ms", "p95_ms", "p99_ms",
                                "sharded", "cache_hits"});
  framework::ResultTable goodput({"devices", "tenant", "submitted", "ok",
                                  "shed", "expired", "errors"});
  int exit_status = 0;

  for (const std::uint32_t devices : fleet_sizes) {
    framework::Engine engine(opt);
    fleet::Fleet::Config fc;
    fc.devices = devices;
    if (opt.hosts > 1) {
      // Two-level fleet: NVLink within a host, --interconnect (default
      // ib-edr) between hosts. Placements that spill past one host's
      // devices now pay the network and print with an ":<h>h" suffix.
      fc.hosts = opt.hosts;
      if (!opt.interconnect.empty()) {
        fc.inter = simt::interconnect_spec_from_string(opt.interconnect);
      }
    }
    fleet::Fleet fleet(engine, fc);
    fleet::FleetService::Config sc;
    sc.workers = clients;
    fleet::FleetService service(engine, fleet, sc);

    // --- serial warmup: pins picks and placements ------------------------
    bool identical = true;
    for (const auto& name : warmup_order) {
      serve::QueryRequest req;
      req.dataset = name;
      auto reply = service.submit(std::move(req)).get();
      if (reply.status != serve::QueryStatus::kOk) {
        std::cerr << "fleet warmup for '" << name << "' (M=" << devices
                  << ") failed: " << to_string(reply.status) << " "
                  << reply.error << '\n';
        return 2;
      }
      const auto& [ref_algo, ref_triangles] = reference[name];
      if (reply.algorithm != ref_algo || reply.triangles != ref_triangles) {
        if (devices == 1) {
          std::cerr << "M=1 DIVERGENCE: " << name << " -> " << reply.algorithm
                    << "/" << reply.triangles << " vs plain service "
                    << ref_algo << "/" << ref_triangles << '\n';
          identical = false;
        }
      }
    }
    if (!identical) return 4;

    if (devices == fleet_sizes.back() || opt.gpus != 0) {
      framework::ResultTable placements({"dataset", "placement"});
      for (const auto& [key, placement] : fleet.placement_table()) {
        placements.add_row({key, placement});
      }
      framework::emit(placements, opt, std::cout,
                      "Placement table (M=" + std::to_string(devices) +
                          ", serial warmup)");
    }

    if (!opt.check_placements.empty()) {
      std::map<std::string, std::string> table;
      for (const auto& [key, placement] : fleet.placement_table()) {
        table[key] = placement;
      }
      std::vector<std::pair<std::string, std::string>> wanted;
      if (!parse_gate(opt.check_placements, &wanted)) {
        std::cerr << "bad --check-placements entry (expected "
                     "dataset:placement,...)\n";
        return 2;
      }
      bool drift = false;
      for (const auto& [ds, want] : wanted) {
        const auto it = table.find(ds);
        const std::string got = it == table.end() ? "<none>" : it->second;
        if (got != want) {
          std::cerr << "PLACEMENT DRIFT: " << ds << " -> " << got
                    << " (pinned " << want << ")\n";
          drift = true;
        }
      }
      if (drift) return 3;
      std::cout << "# pinned placements hold\n";
    }

    // --- closed-loop mixed-traffic timed phase ---------------------------
    std::vector<TenantLoad> tenants;
    {
      TenantLoad small;
      small.name = "small";
      small.datasets = smalls;
      small.queries = total_queries * 6 / 10;
      small.threads = std::max<std::size_t>(1, clients / 2);
      tenants.push_back(std::move(small));
      if (!huges.empty()) {
        TenantLoad huge;
        huge.name = "huge";
        huge.datasets = huges;
        huge.queries = total_queries * 3 / 10;
        huge.threads = std::max<std::size_t>(1, clients / 4);
        tenants.push_back(std::move(huge));
      }
      if (!mut_dataset.empty()) {
        TenantLoad mut;
        mut.name = "mut";
        mut.datasets = {mut_dataset};
        mut.queries =
            std::max<std::uint64_t>(1, total_queries / 10);
        mut.threads = 1;
        mut.mutate = true;
        tenants.push_back(std::move(mut));
      }
    }

    std::vector<double> latencies;
    std::mutex lat_mu;
    std::atomic<std::uint64_t> not_ok{0};
    const auto t0 = std::chrono::steady_clock::now();
    {
      std::vector<std::thread> threads;
      for (const TenantLoad& tenant : tenants) {
        auto issued = std::make_shared<std::atomic<std::uint64_t>>(0);
        for (std::size_t c = 0; c < tenant.threads; ++c) {
          threads.emplace_back([&, issued] {
            std::vector<double> local;
            for (std::uint64_t i = issued->fetch_add(1); i < tenant.queries;
                 i = issued->fetch_add(1)) {
              serve::QueryRequest req;
              req.tenant = tenant.name;
              req.dataset = tenant.datasets[i % tenant.datasets.size()];
              if (tenant.mutate) {
                // Deterministic growth batch: fresh edges each round, so
                // every commit is effective and bumps the version.
                const graph::VertexId base = 50'000 +
                    static_cast<graph::VertexId>(i) * 8;
                for (graph::VertexId k = 0; k < 8; ++k) {
                  req.insert_edges.push_back(
                      {static_cast<graph::VertexId>(k % 97), base + k});
                }
              }
              const auto start = std::chrono::steady_clock::now();
              auto reply = service.submit(std::move(req)).get();
              const double ms = std::chrono::duration<double, std::milli>(
                                    std::chrono::steady_clock::now() - start)
                                    .count();
              if (reply.status != serve::QueryStatus::kOk) not_ok.fetch_add(1);
              local.push_back(ms);
            }
            std::lock_guard lk(lat_mu);
            latencies.insert(latencies.end(), local.begin(), local.end());
          });
        }
      }
      for (auto& t : threads) t.join();
    }
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();

    std::sort(latencies.begin(), latencies.end());
    double busy_ms = 0.0;
    for (const auto& slot : fleet.slots()) busy_ms += slot.busy_ms;
    const double util =
        wall_ms > 0.0 ? busy_ms / (static_cast<double>(devices) * wall_ms)
                      : 0.0;
    const auto fcnt = fleet.counters();
    std::uint64_t ok = 0, shed = 0;
    for (const auto& [tenant, ts] : service.tenant_stats()) {
      ok += ts.ok;
      shed += ts.shed;
      goodput.add_row({std::to_string(devices), tenant,
                       std::to_string(ts.submitted), std::to_string(ts.ok),
                       std::to_string(ts.shed), std::to_string(ts.expired),
                       std::to_string(ts.errors)});
    }
    sweep.add_row(
        {std::to_string(devices), std::to_string(latencies.size()),
         std::to_string(ok), std::to_string(shed),
         framework::ResultTable::fmt(util, 3),
         framework::ResultTable::fmt(
             wall_ms > 0.0
                 ? static_cast<double>(latencies.size()) * 1000.0 / wall_ms
                 : 0.0,
             1),
         framework::ResultTable::fmt(percentile(latencies, 0.50), 3),
         framework::ResultTable::fmt(percentile(latencies, 0.95), 3),
         framework::ResultTable::fmt(percentile(latencies, 0.99), 3),
         std::to_string(fcnt.sharded_runs), std::to_string(fcnt.cache_hits)});

    service.shutdown();
    if (not_ok.load() != 0) exit_status = 1;
    if (!engine.all_valid()) exit_status = 1;
  }

  framework::emit(sweep, opt, std::cout,
                  "Fleet closed-loop sweep (" + std::to_string(clients) +
                      " clients, " + std::to_string(total_queries) +
                      " queries per M, mixed small/huge/mut traffic)");
  framework::emit(goodput, opt, std::cout, "Per-tenant goodput");
  return exit_status;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tcgpu;
  framework::BenchOptions opt;
  try {
    opt = framework::BenchOptions::parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
  if (opt.fleet) return fleet_main(opt);

  std::vector<std::string> datasets = opt.datasets;
  if (datasets.empty()) {
    for (const auto& spec : gen::paper_datasets()) datasets.push_back(spec.name);
  }
  const std::size_t clients = opt.clients == 0 ? 4 : opt.clients;
  const std::uint64_t total_queries =
      opt.queries == 0 ? 16 * datasets.size() : opt.queries;

  framework::Engine engine(opt);
  serve::QueryService::Config cfg;
  cfg.workers = opt.jobs == 0 ? 2 : opt.jobs;
  serve::QueryService service(engine, cfg);

  // --- Phase 1: serial warmup pins the decision table --------------------
  framework::ResultTable picks({"dataset", "algorithm", "modeled_ms",
                                "measured_ms", "triangles", "valid"});
  for (const auto& name : datasets) {
    serve::QueryRequest req;
    req.dataset = name;
    auto reply = service.submit(std::move(req)).get();
    if (reply.status != serve::QueryStatus::kOk) {
      std::cerr << "warmup query for '" << name
                << "' failed: " << to_string(reply.status) << " "
                << reply.error << '\n';
      return 2;
    }
    picks.add_row({name, reply.algorithm,
                   framework::ResultTable::fmt(reply.modeled.modeled_ms, 4),
                   framework::ResultTable::fmt(reply.stats.time_ms, 4),
                   std::to_string(reply.triangles),
                   reply.valid ? "yes" : "NO"});
  }
  framework::emit(picks, opt, std::cout,
                  "Selector decision table (serial warmup, seed " +
                      std::to_string(opt.seed) + ", edge cap " +
                      std::to_string(opt.max_edges) + ")");

  if (!opt.check_picks.empty()) {
    // "dataset:algorithm,..." — assert against the latched table.
    std::map<std::string, std::string> table;
    for (const auto& [key, algo] : service.decision_table()) table[key] = algo;
    bool drift = false;
    std::stringstream ss(opt.check_picks);
    std::string item;
    while (std::getline(ss, item, ',')) {
      const auto colon = item.rfind(':');
      if (colon == std::string::npos) {
        std::cerr << "bad --check-picks entry '" << item
                  << "' (expected dataset:algorithm)\n";
        return 2;
      }
      const std::string ds = item.substr(0, colon);
      const std::string want = item.substr(colon + 1);
      const auto it = table.find(ds);
      const std::string got = it == table.end() ? "<none>" : it->second;
      if (got != want) {
        std::cerr << "PICK DRIFT: " << ds << " -> " << got << " (pinned "
                  << want << ")\n";
        drift = true;
      }
    }
    if (drift) return 3;
    std::cout << "# pinned picks hold\n";
  }

  // --- Phase 2: closed-loop timed run ------------------------------------
  std::atomic<std::uint64_t> next{0};
  std::vector<std::vector<double>> latencies(clients);
  std::atomic<std::uint64_t> not_ok{0};
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (std::uint64_t i = next.fetch_add(1); i < total_queries;
             i = next.fetch_add(1)) {
          serve::QueryRequest req;
          req.dataset = datasets[i % datasets.size()];
          auto reply = service.submit(std::move(req)).get();
          if (reply.status != serve::QueryStatus::kOk || !reply.valid) {
            not_ok.fetch_add(1);
          }
          latencies[c].push_back(reply.trace.total_ms());
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());

  const auto counters = service.counters();
  framework::ResultTable summary({"clients", "queries", "not_ok", "batches",
                                  "batched", "p50_ms", "p95_ms", "p99_ms",
                                  "qps"});
  summary.add_row(
      {std::to_string(clients), std::to_string(all.size()),
       std::to_string(not_ok.load()), std::to_string(counters.batches),
       std::to_string(counters.batched),
       framework::ResultTable::fmt(percentile(all, 0.50), 3),
       framework::ResultTable::fmt(percentile(all, 0.95), 3),
       framework::ResultTable::fmt(percentile(all, 0.99), 3),
       framework::ResultTable::fmt(
           wall_s > 0.0 ? static_cast<double>(all.size()) / wall_s : 0.0, 1)});
  framework::emit(summary, opt, std::cout,
                  "Closed-loop throughput (" + std::to_string(clients) +
                      " clients, " + std::to_string(total_queries) +
                      " queries)");

  service.shutdown();
  if (not_ok.load() != 0) return 1;
  return engine.exit_code();
}
