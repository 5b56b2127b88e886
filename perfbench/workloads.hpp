// The four workloads. Each is built fresh for every set-up repetition,
// then measured in one untraced phase (and, with tracing, one traced
// phase) on the last set-up. Load comes from this one process: a closed
// loop of at most nproc (4) client threads, each sending its next request
// only after the previous reply. Every Engine, FleetService and
// QueryService setting stays at its library default except
// Fleet::Config::devices = 4.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/service.hpp"
#include "framework/capacity.hpp"
#include "framework/engine.hpp"
#include "framework/registry.hpp"
#include "gen/paper_datasets.hpp"
#include "gen/rng.hpp"
#include "record.hpp"

namespace perfbench {

namespace fw = tcgpu::framework;
using tcgpu::serve::QueryReply;
using tcgpu::serve::QueryRequest;
using tcgpu::serve::QueryStatus;

constexpr std::size_t kClients = 4;  ///< closed-loop clients: nproc of a 4-core box

/// Set-up timings gathered over every repetition.
struct SetupLog {
  bool traced = false;  ///< record spans around this repetition's prepares
  std::map<std::string, std::vector<double>> prepare_ms;  ///< per dataset
  std::vector<double> setup_s;
  SpanLog spans;

  void prepare(const std::string& name, Clock::time_point a, Clock::time_point b) {
    prepare_ms[name].push_back(ms_between(a, b));
    if (traced) spans.request({Span{"graph.prepare", -1, spans.requests(), a, b}});
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup(SetupLog& log) = 0;
  virtual PhaseResult phase(double seconds, bool traced) = 0;
};

// ---------------------------------------------------------------------------
// Reply bookkeeping shared by the serve_* workloads
// ---------------------------------------------------------------------------

inline std::uint64_t request_id(std::size_t client, std::uint64_t i) {
  return (static_cast<std::uint64_t>(client) << 40) | i;
}

/// Empty when the count reply is OK, validated, and equals `expected`.
inline std::string check_count(const QueryReply& r, std::uint64_t expected) {
  if (r.status != QueryStatus::kOk) {
    return r.dataset + ": " + tcgpu::serve::to_string(r.status) + " " + r.error;
  }
  if (!r.valid) return r.dataset + ": count failed validation";
  if (r.triangles != expected) {
    return r.dataset + ": " + std::to_string(r.triangles) + " triangles, expected " +
           std::to_string(expected);
  }
  return {};
}

/// Spans shared by count and mutation replies: the client's wait on the
/// fleet scheduler and dispatcher, the inner service, its queue.
inline void service_spans(std::vector<Span>& s, std::uint64_t req, const QueryReply& r,
                          Clock::time_point c0, Clock::time_point c1) {
  const auto& t = r.trace;
  s.clear();
  s.push_back({"client.request", -1, req, c0, c1});
  s.push_back({"fleet.schedule", 0, req, c0, t.enqueue});
  s.push_back({"serve.service", 0, req, t.enqueue, t.reply});
  s.push_back({"fleet.reply", 0, req, t.reply, c1});
  s.push_back({"serve.queue", 2, req, t.enqueue, t.admit});
}

/// Records one count reply. `prepare_span` names the prepare stage:
/// graph.prepare, or stream.materialize for a streamed dataset. The run
/// stage of a miss is fleet dispatch + engine upload + simulated kernel
/// ("sim.run"), or a sharded run ("dist.run"); a hit is "fleet.cache".
inline void record_count(ClientStats& cs, const QueryReply& r, Clock::time_point c0,
                         Clock::time_point c1, bool traced, std::uint64_t req,
                         const char* prepare_span) {
  const auto& t = r.trace;
  const double latency = ms_between(c0, c1);
  cs.latency_ms.add(latency);
  cs.service_ms_sum += t.total_ms();
  cs.prepare_ms_sum += t.prepare_ms();
  if (!r.cache_hit) cs.run_ms_sum += t.run_ms();
  if (r.status == QueryStatus::kOk) {
    cs.device_ms += r.cache_hit ? 0.0 : r.stats.time_ms + r.comm_ms;
    ++cs.device_results;
  }
  if (!traced) return;

  cs.wait_ms.add(latency - t.total_ms());
  cs.queue_ms.add(t.queue_ms());
  cs.select_ms.add(t.select_ms());
  // graph.prepare_ms_* report graph prepares only; a streamed dataset's
  // materialize stage goes to stream.materialize_ms instead.
  if (std::string_view(prepare_span) == "graph.prepare") cs.prepare_ms.add(t.prepare_ms());
  if (!r.cache_hit) {
    cs.run_ms.add(t.run_ms());
    cs.kernel_host_s[r.algorithm] += t.run_ms() / 1000.0;
    cs.kernel_host_total_s += t.run_ms() / 1000.0;
    cs.kernel_metrics += r.stats.metrics;
    ++cs.kernel_runs;
  }
  thread_local std::vector<Span> s;
  service_spans(s, req, r, c0, c1);
  const char* run_span = r.cache_hit ? "fleet.cache" : r.sharded ? "dist.run" : "sim.run";
  s.push_back({prepare_span, 2, req, t.prepare_start, t.prepare_done});
  s.push_back({"serve.select", 2, req, t.prepare_done, t.select_done});
  s.push_back({run_span, 2, req, t.run_start, t.run_done});
  cs.spans.request(s);
}

/// Records one mutation reply (serve_churn).
inline void record_commit(ClientStats& cs, const QueryReply& r, Clock::time_point c0,
                          Clock::time_point c1, bool traced, std::uint64_t req) {
  cs.commit_ms.add(ms_between(c0, c1));
  ++cs.commits;
  if (r.algorithm == "stream-recount") ++cs.recounts;
  if (r.status == QueryStatus::kOk) {
    cs.device_ms += r.stats.time_ms;
    ++cs.device_results;
  }
  if (!traced) return;
  const auto& t = r.trace;
  cs.commit_run_ms.add(t.run_ms());
  cs.stream_lane_steps += r.stats.metrics.active_lane_steps;
  thread_local std::vector<Span> s;
  service_spans(s, req, r, c0, c1);
  s.push_back({"stream.state", 2, req, t.prepare_start, t.prepare_done});
  s.push_back({"stream.commit", 2, req, t.run_start, t.run_done});
  cs.spans.request(s);
}

/// Engine + 4-device fleet + FleetService, all at library defaults.
struct ServeStack {
  fw::Engine engine;
  tcgpu::fleet::Fleet fleet;
  tcgpu::fleet::FleetService service;

  static tcgpu::fleet::Fleet::Config fleet_config() {
    tcgpu::fleet::Fleet::Config c;
    c.devices = 4;
    return c;
  }

  ServeStack()
      : fleet(engine, fleet_config()),
        service(engine, fleet, tcgpu::fleet::FleetService::Config{}) {}

  QueryReply ask(QueryRequest req) { return service.submit(std::move(req)).get(); }

  Counters counters() {
    Counters c;
    c.engine = engine.counters();
    c.service = service.service().counters();
    c.fleet = fleet.counters();
    for (const auto& slot : fleet.slots()) c.busy_ms += slot.busy_ms;
    for (const auto& [tenant, ts] : service.tenant_stats()) c.shed += ts.shed;
    return c;
  }

  /// One closed-loop phase of `clients` threads running `body`.
  template <class Body>
  PhaseResult phase(std::size_t clients, double seconds, Body body) {
    PhaseResult r;
    r.devices = fleet.config().devices;
    r.origin = Clock::now();
    const Counters before = counters();
    closed_loop(clients, seconds, r, body);
    r.counters = delta(before, counters());
    r.peak_rss_mb = fw::peak_rss_mb();
    return r;
  }
};

// ---------------------------------------------------------------------------
// grid: the paper's experiment.
//
// Engine::sweep of the nine paper kernels (framework::all_algorithms()) over
// As-Caida, Email-EuAll, RoadNet-CA, Web-BerkStan, Soc-Pokec and Com-Orkut at
// the default 100k-edge cap, with the Engine's default workers=1 (workers=4
// bought no throughput, since inner OpenMP threads get split, and spread
// wider). Each of the 54 cells is validated.
// Stresses: simt+tc (>= 98% of wall time) and the framework's sweep/run.
// Bypasses: serve, fleet, stream and dist; graph runs only in set-up.
// A sweep is the unit of work, so a run measures whole sweeps until
// --seconds have passed (at least one).
// ---------------------------------------------------------------------------
class GridWorkload : public Workload {
 public:
  static const std::vector<std::string>& datasets() {
    static const std::vector<std::string> kDatasets = {
        "As-Caida", "Email-EuAll", "RoadNet-CA", "Web-BerkStan", "Soc-Pokec", "Com-Orkut"};
    return kDatasets;
  }

  void setup(SetupLog& log) override {
    fw::Engine::Config cfg;
    cfg.datasets = datasets();
    engine_ = std::make_unique<fw::Engine>(cfg);
    for (const auto& ds : datasets()) {
      const auto t0 = Clock::now();
      engine_->prepare(ds);
      log.prepare(ds, t0, Clock::now());
    }
  }

  PhaseResult phase(double seconds, bool traced) override {
    PhaseResult r;
    r.origin = Clock::now();
    const auto& algos = fw::all_algorithms();
    Counters before;
    before.engine = engine_->counters();
    ClientStats& cs = r.stats;
    std::vector<Span> s;
    do {
      StampBuf buf;
      std::ostream progress(&buf);
      const auto t0 = Clock::now();
      const auto rows = engine_->sweep(algos, progress);
      const auto t1 = Clock::now();
      r.wall_s += std::chrono::duration<double>(t1 - t0).count();

      const std::size_t lines = rows.size() * (1 + algos.size());
      if (buf.stamps.size() != lines) {
        r.violations.push_back("sweep wrote " + std::to_string(buf.stamps.size()) +
                               " progress lines, expected " + std::to_string(lines));
        break;
      }
      const std::uint64_t req = sweeps_++;
      s.assign(1, Span{"framework.sweep", -1, req, t0, t1});
      double sweep_device_ms = 0.0;
      std::size_t k = 0;
      Clock::time_point prev = t0;
      for (const auto& row : rows) {
        if (traced) s.push_back({"graph.prepare", 0, req, prev, buf.stamps[k]});
        prev = buf.stamps[k++];
        for (std::size_t c = 0; c < algos.size(); ++c) {
          const fw::RunOutcome& out = row.outcomes[c];
          const Clock::time_point end = buf.stamps[k++];
          ++cs.attempted;
          if (!out.valid || out.result.triangles != row.graph->reference_triangles) {
            cs.fail(row.graph->name + "/" + algos[c].name + ": " +
                    std::to_string(out.result.triangles) + " triangles, reference " +
                    std::to_string(row.graph->reference_triangles));
          }
          cs.latency_ms.add(ms_between(prev, end));
          cs.device_ms += out.result.total.time_ms;
          ++cs.device_results;
          sweep_device_ms += out.result.total.time_ms;
          cs.kernel_host_total_s += out.host_seconds;
          if (traced) {
            cs.run_ms.add(out.host_seconds * 1000.0);
            cs.kernel_host_s[algos[c].name] += out.host_seconds;
            cs.kernel_metrics += out.result.total.metrics;
            ++cs.kernel_runs;
            const auto kernel = std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(out.host_seconds));
            s.push_back({"framework.run", 0, req, prev, end});
            s.push_back({"sim.kernel", static_cast<std::int32_t>(s.size() - 1), req,
                         std::max(prev, end - kernel), end});
          }
          prev = end;
        }
      }
      if (traced) cs.spans.request(s);
      // Invariant: modeled device time is a pure function of the code, so
      // every sweep (and every run of this build) must reproduce it.
      if (!device_ms_) {
        device_ms_ = sweep_device_ms;
      } else if (*device_ms_ != sweep_device_ms) {
        r.violations.push_back("grid device time moved between sweeps");
      }
      ++r.passes;
    } while (std::chrono::duration<double>(Clock::now() - r.origin).count() < seconds);
    Counters after;
    after.engine = engine_->counters();
    r.counters = delta(before, after);
    r.peak_rss_mb = fw::peak_rss_mb();
    return r;
  }

  /// Modeled device time of one sweep (set after the first sweep).
  std::optional<double> sweep_device_ms() const { return device_ms_; }

 private:
  std::unique_ptr<fw::Engine> engine_;
  std::optional<double> device_ms_;
  std::uint64_t sweeps_ = 0;
};

// ---------------------------------------------------------------------------
// serve_hot: the host serving path alone.
//
// A serial warmup queries As-Caida, Email-EuAll, Soc-Pokec and Com-Orkut
// once (Com-Orkut places shard4, so the dist layer runs here, inside
// set-up). Then kClients clients round-robin count queries over them
// through FleetService.
// Stresses: fleet (scheduler, dispatcher, result cache, sticky pick) and
// serve (queue, batching, selection).
// Bypasses: simt/tc, graph and stream. Every timed query is a fleet result-
// cache hit, so the simulator is idle (invariant).
// Not in BENCHMARK.json: a cache hit costs ~20 us of host work and four
// thread hand-offs, so its rate follows the host's wake-up latency. Over 5
// seeds on a 4-vCPU VM with < 1% steal, ops_per_s and p90_ms spread 27%
// (quartile distance over median), past the 0.25 bound; 4 runs of one seed
// spread 20% and 17%.
// ---------------------------------------------------------------------------
class HotWorkload : public Workload {
 public:
  static const std::vector<std::string>& datasets() {
    static const std::vector<std::string> kDatasets = {"As-Caida", "Email-EuAll",
                                                       "Soc-Pokec", "Com-Orkut"};
    return kDatasets;
  }

  void setup(SetupLog& log) override {
    stack_ = std::make_unique<ServeStack>();
    for (const auto& ds : datasets()) {
      QueryRequest req;
      req.dataset = ds;
      const QueryReply r = stack_->ask(std::move(req));
      if (r.status != QueryStatus::kOk || !r.valid) {
        throw std::runtime_error("warmup of " + ds + " failed: " + r.error);
      }
      log.prepare(ds, r.trace.prepare_start, r.trace.prepare_done);
      expected_.push_back(r.triangles);
    }
  }

  PhaseResult phase(double seconds, bool traced) override {
    const auto& ds = datasets();
    PhaseResult r = stack_->phase(kClients, seconds, [&](std::size_t c, std::uint64_t i,
                                                         ClientStats& cs) {
      const std::size_t d = (c + i) % ds.size();
      QueryRequest req;
      req.dataset = ds[d];
      ++cs.attempted;
      const auto c0 = Clock::now();
      const QueryReply reply = stack_->ask(std::move(req));
      const auto c1 = Clock::now();
      std::string err = check_count(reply, expected_[d]);
      if (err.empty() && !reply.cache_hit) err = ds[d] + ": result-cache miss";
      if (!err.empty()) cs.fail(std::move(err));
      record_count(cs, reply, c0, c1, traced, request_id(c, i), "graph.prepare");
    });
    const Counters& d = r.counters;
    if (d.fleet.single_runs + d.fleet.sharded_runs != 0) {
      r.violations.push_back("serve_hot ran " +
                             std::to_string(d.fleet.single_runs + d.fleet.sharded_runs) +
                             " kernels in its timed phase");
    }
    if (d.fleet.cache_hits != r.stats.attempted) {
      r.violations.push_back("serve_hot cache-hit ratio below 1");
    }
    return r;
  }

 private:
  std::unique_ptr<ServeStack> stack_;
  std::vector<std::uint64_t> expected_;  ///< warmup counts, per dataset
};

// ---------------------------------------------------------------------------
// serve_ingest: prepare-bound inline queries.
//
// Each query carries its own ~50k-edge graph. Set-up generates kVariants
// base graphs per low-degree paper shape (As-Caida, RoadNet-CA, Com-Dblp,
// Cit-Patents) from the workload seed, and counts their triangles with the
// CPU reference. Query q sends base q mod 16 with its vertex ids rotated
// by a seeded per-query offset: a relabeling, so the count is the base's,
// but the edge list (and so the graph identity) is new every time.
// Stresses: graph (prepare_raw is ~45% of service time), simt/tc, and
// framework's upload/release. Nothing caches or batches (invariant).
// Bypasses: stream; the fleet cache only misses.
// Not in BENCHMARK.json: each client's prepare and kernel launch fork an
// OpenMP team of omp_get_max_threads() threads, so four concurrent teams
// share 4 cores. Over 5 seeds on a 4-vCPU VM with < 1% steal, ops_per_s,
// p50_ms and p90_ms spread 43%, 46% and 50% (quartile distance over
// median), past the 0.25 bound; 4 runs of two seeds spread 33-35%.
// ---------------------------------------------------------------------------
class IngestWorkload : public Workload {
 public:
  static constexpr std::uint64_t kEdges = 50'000;
  static constexpr std::size_t kVariants = 4;  ///< seeded base graphs per shape

  static const std::vector<std::string>& shapes() {
    static const std::vector<std::string> kShapes = {"As-Caida", "RoadNet-CA", "Com-Dblp",
                                                     "Cit-Patents"};
    return kShapes;
  }

  explicit IngestWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup(SetupLog& log) override {
    stack_ = std::make_unique<ServeStack>();
    tcgpu::gen::SplitMix64 rng(seed_);
    for (std::size_t k = 0; k < kVariants * shapes().size(); ++k) {
      const std::string& shape = shapes()[k % shapes().size()];
      tcgpu::graph::Coo base = tcgpu::gen::generate_dataset(
          tcgpu::gen::dataset_by_name(shape), kEdges, rng.next());
      const auto t0 = Clock::now();
      const fw::PreparedGraph pg = fw::prepare_graph(shape, base);
      log.prepare(shape, t0, Clock::now());
      expected_.push_back(pg.reference_triangles);
      offset_.push_back(rng.next());
      bases_.push_back(std::move(base));
    }
  }

  PhaseResult phase(double seconds, bool traced) override {
    PhaseResult r = stack_->phase(kClients, seconds, [&](std::size_t c, std::uint64_t i,
                                                         ClientStats& cs) {
      const std::uint64_t q = next_.fetch_add(1);
      const std::size_t b = q % bases_.size();
      const tcgpu::graph::Coo& base = bases_[b];
      const std::string& shape = shapes()[b % shapes().size()];
      const std::uint64_t n = base.num_vertices;
      const auto rot = static_cast<tcgpu::graph::VertexId>(
          1 + (offset_[b] + q / bases_.size()) % (n - 1));
      QueryRequest req;
      req.name = shape;
      req.edges.num_vertices = base.num_vertices;
      req.edges.edges.reserve(base.edges.size());
      for (const auto& [u, v] : base.edges) {
        req.edges.edges.emplace_back(static_cast<tcgpu::graph::VertexId>((u + rot) % n),
                                     static_cast<tcgpu::graph::VertexId>((v + rot) % n));
      }
      ++cs.attempted;
      const auto c0 = Clock::now();
      const QueryReply reply = stack_->ask(std::move(req));
      const auto c1 = Clock::now();
      std::string err = check_count(reply, expected_[b]);
      if (err.empty() && reply.cache_hit) err = shape + ": inline query hit a cache";
      if (!err.empty()) cs.fail(std::move(err));
      record_count(cs, reply, c0, c1, traced, request_id(c, i), "graph.prepare");
    });
    const Counters& d = r.counters;
    if (d.engine.prepare_hits != 0) r.violations.push_back("serve_ingest hit the prepare cache");
    if (d.service.batched != 0) r.violations.push_back("serve_ingest batched queries");
    if (d.fleet.cache_hits != 0) r.violations.push_back("serve_ingest hit the result cache");
    return r;
  }

 private:
  std::uint64_t seed_;
  std::unique_ptr<ServeStack> stack_;
  std::vector<tcgpu::graph::Coo> bases_;
  std::vector<std::uint64_t> expected_;  ///< CPU reference count per base
  std::vector<std::uint64_t> offset_;    ///< seeded rotation base per base
  std::atomic<std::uint64_t> next_{0};   ///< query index, across phases
};

// ---------------------------------------------------------------------------
// serve_churn: writes beside reads, on a stationary graph.
//
// kClients clients each own one dataset (As-Caida, Email-EuAll, Wiki-Talk,
// Com-Dblp), so one dataset's ops never race, and loop: commit one batch,
// then send one count. Each batch inserts kPairs seeded random non-edges
// inside the dataset's vertex range and removes the previous batch's
// inserts, so the graph returns to original + one batch after every
// commit and stays stationary (growth batches of fresh vertex ids slowed
// the workload ~12x as graphs grew).
// Stresses: stream (delta commit, snapshot materialize), framework
// (re-upload per version), simt/tc (one kernel per count), and the
// invalidation path of every cache: each commit bumps the version, so each
// count misses at the new version (invariant), and no commit falls back to
// a full recount (invariant).
// Bypasses: the fleet result cache and the prepare cache (both invalidated).
// ---------------------------------------------------------------------------
class ChurnWorkload : public Workload {
 public:
  static constexpr std::size_t kPairs = 8;     ///< inserts per batch
  static constexpr std::size_t kBatches = 64;  ///< pre-generated cycle per stream

  static const std::vector<std::string>& datasets() {
    static const std::vector<std::string> kDatasets = {"As-Caida", "Email-EuAll", "Wiki-Talk",
                                                       "Com-Dblp"};
    return kDatasets;
  }

  explicit ChurnWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup(SetupLog& log) override {
    stack_ = std::make_unique<ServeStack>();
    tcgpu::gen::SplitMix64 rng(seed_);
    streams_.resize(datasets().size());
    for (std::size_t c = 0; c < streams_.size(); ++c) {
      Stream& cl = streams_[c];
      cl.dataset = datasets()[c];
      const auto t0 = Clock::now();
      const auto pg = stack_->engine.prepare(cl.dataset);
      log.prepare(cl.dataset, t0, Clock::now());
      cl.batches = make_batches(pg->dag, rng);

      // Seeds the DynamicGraph with batch 0, then one count uploads it.
      QueryRequest commit;
      commit.dataset = cl.dataset;
      commit.insert_edges = cl.batches[0];
      const QueryReply cr = stack_->ask(std::move(commit));
      if (cr.status != QueryStatus::kOk || cr.version == 0) {
        throw std::runtime_error("seeding " + cl.dataset + " failed: " + cr.error);
      }
      QueryRequest count;
      count.dataset = cl.dataset;
      const QueryReply r = stack_->ask(std::move(count));
      if (const std::string err = check_count(r, cr.triangles); !err.empty()) {
        throw std::runtime_error("seed count: " + err);
      }
      cl.version = cr.version;
    }
  }

  PhaseResult phase(double seconds, bool traced) override {
    PhaseResult r = stack_->phase(kClients, seconds, [&](std::size_t c, std::uint64_t i,
                                                         ClientStats& cs) {
      Stream& cl = streams_[c];
      QueryRequest commit;
      commit.dataset = cl.dataset;
      commit.insert_edges = cl.batches[(cl.cursor + 1) % kBatches];
      commit.remove_edges = cl.batches[cl.cursor % kBatches];
      ++cl.cursor;
      cs.attempted += 2;
      auto c0 = Clock::now();
      const QueryReply cr = stack_->ask(std::move(commit));
      auto c1 = Clock::now();
      record_commit(cs, cr, c0, c1, traced, request_id(c, 2 * i));
      if (cr.status != QueryStatus::kOk) {
        cs.fail(cl.dataset + " commit: " + tcgpu::serve::to_string(cr.status) + " " + cr.error);
      } else if (cr.version != cl.version + 1) {
        cs.fail(cl.dataset + " commit did not bump the version");
      }
      cl.version = cr.version;

      QueryRequest count;
      count.dataset = cl.dataset;
      c0 = Clock::now();
      const QueryReply reply = stack_->ask(std::move(count));
      c1 = Clock::now();
      // The kernel's count must equal the total the stream layer maintained.
      std::string err = check_count(reply, cr.triangles);
      if (err.empty() && (reply.cache_hit || reply.version != cr.version)) {
        err = cl.dataset + ": count did not miss at the new version";
      }
      if (!err.empty()) cs.fail(std::move(err));
      record_count(cs, reply, c0, c1, traced, request_id(c, 2 * i + 1), "stream.materialize");
      if (traced) cs.materialize_ms.add(reply.trace.prepare_ms());
    });
    if (r.stats.recounts != 0) {
      r.violations.push_back("serve_churn took " + std::to_string(r.stats.recounts) +
                             " full recounts");
    }
    return r;
  }

 private:
  struct Stream {
    std::string dataset;
    std::vector<std::vector<tcgpu::graph::Edge>> batches;
    std::uint64_t cursor = 0;   ///< batch currently inserted
    std::uint64_t version = 0;  ///< version after the last commit
  };

  /// kBatches batches of kPairs distinct non-edges; cyclically adjacent
  /// batches share no pair, so "insert next, remove current" always
  /// changes the graph and always restores it.
  static std::vector<std::vector<tcgpu::graph::Edge>> make_batches(
      const tcgpu::graph::Csr& dag, tcgpu::gen::SplitMix64& rng) {
    using tcgpu::graph::Edge;
    using tcgpu::graph::VertexId;
    const VertexId n = dag.num_vertices();
    const auto is_edge = [&](VertexId a, VertexId b) {
      const auto row = dag.neighbors(std::min(a, b));
      return std::binary_search(row.begin(), row.end(), std::max(a, b));
    };
    std::vector<std::vector<Edge>> batches(kBatches);
    for (std::size_t b = 0; b < kBatches; ++b) {
      const auto& prev = batches[(b + kBatches - 1) % kBatches];
      const auto& next = batches[(b + 1) % kBatches];  // empty until the wrap
      auto& batch = batches[b];
      while (batch.size() < kPairs) {
        auto u = static_cast<VertexId>(rng.uniform(n));
        auto v = static_cast<VertexId>(rng.uniform(n));
        if (u == v || is_edge(u, v)) continue;
        const Edge e{std::min(u, v), std::max(u, v)};
        const auto has = [&](const std::vector<Edge>& s) {
          return std::find(s.begin(), s.end(), e) != s.end();
        };
        if (has(batch) || has(prev) || has(next)) continue;
        batch.push_back(e);
      }
    }
    return batches;
  }

  std::uint64_t seed_;
  std::unique_ptr<ServeStack> stack_;
  std::vector<Stream> streams_;
};

}  // namespace perfbench
