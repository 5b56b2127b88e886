// Closed-loop load generator for the serving stack: serve::QueryService on
// a fleet::Fleet of M modeled devices (fleet::FleetService).
//
// Sweeps the modeled device count (M = 1,2,4,8, or just --gpus=N) running
// closed-loop mixed traffic — a "small" tenant on light graphs, a "huge"
// tenant on the heavyweights, a "mut" tenant committing mutation batches —
// through the service's scheduler -> fleet. Per M, a serial warmup (one
// query per dataset, fixed order) pins the decision table and the placement
// table, so picks, placements and counts are reproducible run to run no
// matter how the timed phase's threads interleave. --check-picks=
// ds:algo,... and --check-placements=ds:placement,... turn the two tables
// into CI regression gates (exit 3 on drift; placements depend on M, so
// that gate requires --gpus). Reports per-M utilization, QPS and latency
// percentiles, plus per-tenant goodput. Exit codes: 0 = every reply ok and
// every count matched the CPU reference, 1 = a failed query or a
// mismatched count (sharded runs included), 2 = bad flags, 3 = drift.
//
// Try: serve_throughput --gpus=1 --datasets=As-Caida,Soc-Pokec,Com-Orkut
//        --clients=2 --queries=12
//      serve_throughput --gpus=4 --queries=120
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

/// (key, value) rows: pinned gate entries and latched decision tables.
using Table = std::vector<std::pair<std::string, std::string>>;

/// Parses "key:value,..." gate strings (--check-picks, --check-placements).
/// Splits at the FIRST colon — dataset names contain none, but placement
/// values do ("shard4:range"). Returns false on a malformed entry.
bool parse_gate(const std::string& spec, Table* out) {
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const auto colon = item.find(':');
    if (colon == std::string::npos) return false;
    out->emplace_back(item.substr(0, colon), item.substr(colon + 1));
  }
  return true;
}

/// Asserts pinned entries against a latched (key, value) table; prints one
/// "<WHAT> DRIFT" line per mismatch. Returns true when every pin holds.
bool gate_holds(const char* what, const Table& pins, const Table& latched) {
  const std::map<std::string, std::string> table(latched.begin(),
                                                 latched.end());
  bool holds = true;
  for (const auto& [key, want] : pins) {
    const auto it = table.find(key);
    const std::string got = it == table.end() ? "<none>" : it->second;
    if (got != want) {
      std::cerr << what << " DRIFT: " << key << " -> " << got << " (pinned "
                << want << ")\n";
      holds = false;
    }
  }
  return holds;
}

/// One closed-loop tenant of the fleet workload.
struct TenantLoad {
  std::string name;
  std::vector<std::string> datasets;  ///< round-robined (count queries)
  std::uint64_t queries = 0;
  std::size_t threads = 1;
  bool mutate = false;  ///< issue mutation batches instead of counts
};

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

  std::vector<std::uint32_t> fleet_sizes;
  if (opt.gpus != 0) {
    fleet_sizes.push_back(opt.gpus);
  } else {
    fleet_sizes = {1, 2, 4, 8};
  }
  Table pinned_picks, pinned_placements;
  if (!parse_gate(opt.check_picks, &pinned_picks)) {
    std::cerr << "bad --check-picks entry (expected dataset:algorithm,...)\n";
    return 2;
  }
  if (!parse_gate(opt.check_placements, &pinned_placements)) {
    std::cerr << "bad --check-placements entry (expected "
                 "dataset:placement,...)\n";
    return 2;
  }
  if (!pinned_placements.empty() && opt.gpus == 0) {
    std::cerr << "--check-placements requires --gpus=N (placements depend on "
                 "the fleet size)\n";
    return 2;
  }
  if (opt.hosts > 1 && opt.gpus == 0) {
    std::cerr << "--hosts requires --gpus=N (every swept fleet size must be "
                 "a multiple of the host count)\n";
    return 2;
  }
  if (opt.hosts > 1 && opt.gpus % opt.hosts != 0) {
    std::cerr << "--gpus must be a multiple of --hosts, got " << opt.gpus
              << " over " << opt.hosts << '\n';
    return 2;
  }
  if (!opt.interconnect.empty() && opt.hosts <= 1) {
    std::cerr << "--interconnect sets the inter-host link and requires "
                 "--hosts > 1\n";
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
    // --hosts > 1 makes a two-level fleet: NVLink within a host,
    // --interconnect (default ib-edr) between hosts. Placements that spill
    // past one host's devices pay the network and print with an ":<h>h"
    // suffix.
    fc.hosts = std::max(1u, opt.hosts);
    if (!opt.interconnect.empty()) {
      fc.inter = simt::interconnect_spec_from_string(opt.interconnect);
    }
    fleet::Fleet fleet(engine, fc);
    fleet::FleetService::Config sc;
    sc.workers = clients;
    fleet::FleetService service(engine, fleet, sc);

    // --- serial warmup: pins picks and placements ------------------------
    framework::ResultTable warmup({"dataset", "algorithm", "placement",
                                   "modeled_ms", "measured_ms", "triangles"});
    for (const auto& name : warmup_order) {
      serve::QueryRequest req;
      req.dataset = name;
      auto reply = service.submit(std::move(req)).get();
      if (reply.status != serve::QueryStatus::kOk) {
        std::cerr << "warmup for '" << name << "' (M=" << devices
                  << ") failed: " << to_string(reply.status) << " "
                  << reply.error << '\n';
        return 2;
      }
      if (!reply.valid) {
        std::cerr << "warmup for '" << name << "' (M=" << devices
                  << "): COUNT MISMATCH (" << reply.triangles << " via "
                  << reply.algorithm << ", " << reply.placement << ")\n";
        return 1;
      }
      warmup.add_row({name, reply.algorithm, reply.placement,
                      framework::ResultTable::fmt(reply.modeled.modeled_ms, 4),
                      framework::ResultTable::fmt(reply.stats.time_ms, 4),
                      std::to_string(reply.triangles)});
    }
    if (devices == fleet_sizes.back()) {
      framework::emit(warmup, opt, std::cout,
                      "Warmup decisions (M=" + std::to_string(devices) +
                          ", serial warmup, seed " + std::to_string(opt.seed) +
                          ", edge cap " + std::to_string(opt.max_edges) + ")");
    }
    if (!pinned_picks.empty()) {
      if (!gate_holds("PICK", pinned_picks, service.decision_table())) return 3;
      std::cout << "# pinned picks hold\n";
    }
    if (!pinned_placements.empty()) {
      if (!gate_holds("PLACEMENT", pinned_placements,
                      fleet.placement_table())) {
        return 3;
      }
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
              // Sharded runs validate in the runner, not the engine: a
              // miscount only shows in the reply.
              if (reply.status != serve::QueryStatus::kOk || !reply.valid) {
                not_ok.fetch_add(1);
              }
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

