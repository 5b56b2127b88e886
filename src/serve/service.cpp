#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "framework/registry.hpp"
#include "stream/dynamic_graph.hpp"

namespace tcgpu::serve {

namespace {

/// Content hash of an inline edge list — the batching and fleet key for
/// queries that carry their graph with them. Deterministic across runs.
std::uint64_t edges_hash(const graph::Coo& coo) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ coo.num_vertices;
  for (const auto& [u, v] : coo.edges) {
    std::uint64_t x = (static_cast<std::uint64_t>(u) << 32) | v;
    x ^= h;
    x += 0x9e3779b97f4a7c15ull;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    h = x * 0x94d049bb133111ebull;
  }
  return h;
}

/// Same-graph queries a worker fuses into one batch.
constexpr std::size_t kMaxBatch = 32;

QueryTrace::TimePoint now() { return QueryTrace::Clock::now(); }

/// A stream snapshot as a graph the fleet can run, built outside the
/// engine's prepare cache.
framework::Engine::GraphHandle materialize(const stream::Snapshot& snap,
                                           std::string name) {
  auto pg = std::make_shared<framework::PreparedGraph>();
  pg->name = std::move(name);
  pg->stats = snap.stats();
  pg->dag = snap.materialize_dag();
  pg->reference_triangles = snap.triangles();
  return pg;
}

/// Absolute deadline as a monotone EDF tick (microseconds since the clock
/// epoch); 0 = no deadline.
std::uint64_t deadline_tick(QueryTrace::TimePoint enqueue, double deadline_ms) {
  if (deadline_ms <= 0.0) return 0;
  const auto abs =
      enqueue + std::chrono::duration_cast<QueryTrace::Clock::duration>(
                    std::chrono::duration<double, std::milli>(deadline_ms));
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      abs.time_since_epoch())
                      .count();
  return us > 0 ? static_cast<std::uint64_t>(us) : 1;
}

}  // namespace

const char* to_string(QueryStatus s) {
  switch (s) {
    case QueryStatus::kOk: return "ok";
    case QueryStatus::kRejected: return "rejected";
    case QueryStatus::kShutdown: return "shutdown";
    case QueryStatus::kDeadlineExpired: return "deadline-expired";
    case QueryStatus::kInvalidRequest: return "invalid-request";
    case QueryStatus::kError: return "error";
  }
  return "?";
}

/// One admitted query riding through the pipeline.
struct QueryService::Pending {
  QueryRequest req;
  std::string key;   ///< batching key: dataset name or inline content hash;
                     ///< version-pinned queries append "@vN" so they never
                     ///< share a batch with head queries of the dataset
  std::string fleet_key;  ///< the bare graph identity (no @vN — the fleet's
                          ///< placement and cache keys carry the version)
  QueryTrace trace;
  std::promise<QueryReply> promise;
};

/// Per-dataset streaming state, created on the first mutation. `m` guards
/// every field and is taken BEFORE mu_ whenever both are held (mu_ is only
/// ever taken alone or inside an `m` scope, never the other way around).
struct QueryService::StreamState {
  std::mutex m;
  std::unique_ptr<stream::DynamicGraph> dyn;
  /// The current version's snapshot materialized as a PreparedGraph, built
  /// once per version and dropped on the next version bump.
  framework::Engine::GraphHandle materialized;
  std::uint64_t materialized_version = 0;
};

QueryService::QueryService(framework::Engine& engine, Config cfg)
    : QueryService(engine,
                   std::make_unique<fleet::Fleet>(engine, fleet::Fleet::Config{}),
                   nullptr, cfg) {}

QueryService::QueryService(framework::Engine& engine, fleet::Fleet& fleet,
                           Config cfg)
    : QueryService(engine, nullptr, &fleet, cfg) {}

QueryService::QueryService(framework::Engine& engine,
                           std::unique_ptr<fleet::Fleet> own,
                           fleet::Fleet* borrowed, Config cfg)
    : engine_(engine),
      own_fleet_(std::move(own)),
      fleet_(borrowed != nullptr ? *borrowed : *own_fleet_),
      selector_(engine.config().spec),
      queue_(cfg.default_policy) {
  const std::size_t workers = std::max<std::size_t>(1, cfg.workers);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

QueryService::~QueryService() { shutdown(); }

void QueryService::shutdown() {
  {
    std::lock_guard lk(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  queue_.close();  // workers drain the backlog, then exit
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
}

void QueryService::set_tenant_policy(const std::string& tenant,
                                     TenantPolicy policy) {
  queue_.set_policy(tenant, policy);
}

std::future<QueryReply> QueryService::submit(QueryRequest req) {
  auto pending = std::make_unique<Pending>();
  pending->req = std::move(req);
  if (pending->req.tenant.empty()) pending->req.tenant = "default";
  pending->trace.enqueue = now();
  auto future = pending->promise.get_future();
  const std::string tenant = pending->req.tenant;

  QueryReply early;
  early.tenant = tenant;
  early.dataset = pending->req.dataset.empty()
                      ? (pending->req.name.empty() ? "inline" : pending->req.name)
                      : pending->req.dataset;
  if (pending->req.dataset.empty() && pending->req.edges.edges.empty() &&
      !pending->req.is_mutation()) {
    early.status = QueryStatus::kInvalidRequest;
    early.error = "query names no dataset and carries no edges";
  } else if (pending->req.version != 0 && pending->req.is_mutation()) {
    early.status = QueryStatus::kInvalidRequest;
    early.error = "mutations always target the head version (version must be 0)";
  } else if (pending->req.version != 0 && pending->req.dataset.empty()) {
    early.status = QueryStatus::kInvalidRequest;
    early.error = "inline graphs have no version history to pin";
  } else {
    pending->fleet_key =
        pending->req.dataset.empty()
            ? "inline:" + std::to_string(edges_hash(pending->req.edges))
            : pending->req.dataset;
    pending->key =
        pending->req.version != 0
            ? pending->fleet_key + "@v" + std::to_string(pending->req.version)
            : pending->fleet_key;
    const std::uint64_t tick =
        deadline_tick(pending->trace.enqueue, pending->req.deadline_ms);
    // push() consumes the unique_ptr only on admission, so `pending` is
    // still whole on the other two outcomes.
    switch (queue_.push(tenant, tick, std::move(pending))) {
      case AdmitResult::kAdmitted: {
        std::lock_guard lk(mu_);
        ++counters_.submitted;
        ++tenant_stats_[tenant].submitted;
        return future;
      }
      case AdmitResult::kShed:
        early.status = QueryStatus::kRejected;
        early.error = "tenant queue full (shed)";
        break;
      case AdmitResult::kClosed:
        early.status = QueryStatus::kShutdown;
        break;
    }
  }

  // Terminal without admission: resolve the original promise immediately.
  {
    std::lock_guard lk(mu_);
    ++counters_.rejected;
    TenantStats& ts = tenant_stats_[tenant];
    if (early.status == QueryStatus::kRejected) {
      ++ts.shed;
    } else {
      ++ts.errors;
      if (early.status == QueryStatus::kInvalidRequest) ++counters_.errors;
    }
  }
  pending->trace.reply = now();
  early.trace = pending->trace;
  pending->promise.set_value(std::move(early));
  return future;
}

void QueryService::worker_loop() {
  while (auto item = queue_.pop()) {
    std::vector<std::unique_ptr<Pending>> batch;
    batch.push_back(std::move(*item));
    const Pending& head = *batch.front();
    auto more = queue_.take_matching(
        head.req.tenant,
        [&key = head.key](const std::unique_ptr<Pending>& p) { return p->key == key; },
        kMaxBatch - 1);
    for (auto& p : more) batch.push_back(std::move(p));
    process_batch(std::move(batch));
  }
}

void QueryService::finish(Pending& p, QueryReply reply) {
  reply.tenant = p.req.tenant;
  reply.trace = p.trace;
  reply.trace.reply = now();
  {
    std::lock_guard lk(mu_);
    ++counters_.served;
    TenantStats& ts = tenant_stats_[p.req.tenant];
    switch (reply.status) {
      case QueryStatus::kOk:
        ++ts.ok;
        break;
      case QueryStatus::kDeadlineExpired:
        ++counters_.expired;
        ++ts.expired;
        break;
      default:  // kInvalidRequest or kError: workers produce no other status
        ++counters_.errors;
        ++ts.errors;
        break;
    }
  }
  p.promise.set_value(std::move(reply));
}

std::shared_ptr<QueryService::StreamState> QueryService::stream_state(
    const std::string& dataset, bool create) {
  std::lock_guard lk(mu_);
  const auto it = streams_.find(dataset);
  if (it != streams_.end()) return it->second;
  if (!create) return nullptr;
  auto ss = std::make_shared<StreamState>();
  streams_.emplace(dataset, ss);
  return ss;
}

framework::Engine::GraphHandle QueryService::stream_handle(
    StreamState& ss, const std::string& dataset, std::uint64_t* version) {
  // Caller holds ss.m. One materialization per dataset version; every run
  // on it uploads its own device image.
  const auto snap = ss.dyn->snapshot();
  if (version != nullptr) *version = snap->version();
  if (ss.materialized && ss.materialized_version == snap->version()) {
    return ss.materialized;
  }
  ss.materialized = materialize(*snap, dataset);
  ss.materialized_version = snap->version();
  return ss.materialized;
}

void QueryService::handle_mutation(Pending& p, const std::string& label) {
  QueryReply reply;
  reply.dataset = label;
  reply.algorithm = "stream-delta";

  if (p.req.dataset.empty()) {
    reply.status = QueryStatus::kInvalidRequest;
    reply.error = "mutations require a named dataset (inline graphs cannot mutate)";
    finish(p, std::move(reply));
    return;
  }

  const auto ss = stream_state(p.req.dataset, /*create=*/true);
  {
    std::lock_guard slk(ss->m);
    p.trace.prepare_start = now();
    try {
      if (!ss->dyn) {
        // First mutation moves the dataset onto a DynamicGraph, seeded from
        // the same prepared DAG a count query would use.
        const auto seed = engine_.prepare(p.req.dataset);
        ss->dyn = std::make_unique<stream::DynamicGraph>(
            seed->dag, stream::DynamicGraph::Config{engine_.config().spec});
      }
    } catch (const std::exception& e) {
      p.trace.prepare_done = now();
      reply.status = QueryStatus::kInvalidRequest;
      reply.error = e.what();
      finish(p, std::move(reply));
      return;
    }
    p.trace.prepare_done = now();

    std::vector<stream::EdgeOp> ops;
    ops.reserve(p.req.insert_edges.size() + p.req.remove_edges.size());
    for (const auto& [u, v] : p.req.insert_edges) ops.push_back({u, v, true});
    for (const auto& [u, v] : p.req.remove_edges) ops.push_back({u, v, false});

    p.trace.run_start = now();
    stream::CommitResult cr;
    try {
      cr = ss->dyn->commit(ops);
    } catch (const std::exception& e) {
      p.trace.run_done = now();
      reply.status = QueryStatus::kError;
      reply.error = e.what();
      finish(p, std::move(reply));
      return;
    }
    p.trace.run_done = now();

    if (cr.changed) {
      // The version bumped: every layer describing the old graph goes —
      // the old materialized snapshot and, through the fleet, the engine's
      // cached prepares of the dataset (a cache hit would resurrect
      // pre-mutation data) and the cached results and placements.
      ss->materialized.reset();
      fleet_.invalidate(p.req.dataset);
    }

    reply.status = QueryStatus::kOk;
    reply.version = cr.version;
    reply.delta_triangles = cr.delta_triangles;
    reply.triangles = cr.triangles;
    reply.valid = true;
    reply.stats = cr.stats;
  }

  {
    std::lock_guard lk(mu_);
    ++counters_.mutations;
  }
  finish(p, std::move(reply));
}

void QueryService::process_batch(std::vector<std::unique_ptr<Pending>> batch) {
  const auto admit = now();
  for (auto& p : batch) p->trace.admit = admit;
  {
    std::lock_guard lk(mu_);
    ++counters_.batches;
    counters_.batched += batch.size() - 1;
  }

  Pending& head = *batch.front();
  const bool is_inline = head.req.dataset.empty();
  const std::string label =
      is_inline ? (head.req.name.empty() ? "inline" : head.req.name)
                : head.req.dataset;

  // One prepare serves every count query at the same version. The
  // resolution is lazy and re-done after each mutation in the batch, so a
  // count query admitted behind a mutation answers against the version that
  // mutation produced (same-key batching keeps the submission order).
  framework::Engine::GraphHandle graph;
  framework::Engine::GraphHandle inline_graph;  // prepared once per batch
  framework::Engine::GraphHandle pinned_graph;  // materialized once per batch
  std::uint64_t graph_version = 0;
  bool from_stream = false;
  bool resolved = false;
  std::string resolve_error;
  QueryTrace::TimePoint prepare_start{};
  QueryTrace::TimePoint prepare_done{};

  const auto resolve = [&] {
    if (resolved) return;
    resolved = true;
    resolve_error.clear();
    graph = nullptr;
    graph_version = 0;
    from_stream = false;
    prepare_start = now();
    try {
      if (is_inline) {
        if (!inline_graph) {
          inline_graph = engine_.prepare_raw(label, head.req.edges);
        }
        graph = inline_graph;
      } else if (head.req.version != 0) {
        // Version-pinned (time-travel) read: answer from the retained
        // snapshot, materialized once per batch outside the engine cache.
        const std::uint64_t want = head.req.version;
        if (!pinned_graph) {
          std::shared_ptr<const stream::Snapshot> snap;
          std::uint64_t head_version = 0;
          std::size_t retained = 0;
          if (const auto ss = stream_state(head.req.dataset, /*create=*/false)) {
            std::lock_guard slk(ss->m);
            if (ss->dyn) {
              head_version = ss->dyn->version();
              retained = ss->dyn->config().history;
              snap = ss->dyn->snapshot_at(want);
            }
          }
          if (head_version == 0) {
            resolve_error = "dataset '" + head.req.dataset +
                            "' has no mutation history; cannot pin version " +
                            std::to_string(want);
          } else if (!snap) {
            resolve_error = "version " + std::to_string(want) +
                            " outside history window (head v" +
                            std::to_string(head_version) + ", retained " +
                            std::to_string(retained) + ")";
          } else {
            // "dataset@vN" labels the replies.
            pinned_graph = materialize(*snap, head.key);
          }
        }
        if (pinned_graph) {
          graph = pinned_graph;
          graph_version = want;
          from_stream = true;
        }
      } else {
        if (const auto ss = stream_state(head.req.dataset, /*create=*/false)) {
          std::lock_guard slk(ss->m);
          if (ss->dyn) {
            graph = stream_handle(*ss, head.req.dataset, &graph_version);
            from_stream = true;
          }
        }
        if (!graph) graph = engine_.prepare(head.req.dataset);
      }
    } catch (const std::exception& e) {
      resolve_error = e.what();
    }
    prepare_done = now();
  };

  for (auto& p : batch) {
    if (p->req.is_mutation()) {
      handle_mutation(*p, label);
      resolved = false;  // the next count query re-resolves at the new version
      continue;
    }

    resolve();
    p->trace.prepare_start = prepare_start;
    p->trace.prepare_done = prepare_done;

    QueryReply reply;
    reply.dataset = label;
    reply.version = graph_version;

    if (!resolve_error.empty()) {
      reply.status = QueryStatus::kInvalidRequest;
      reply.error = resolve_error;
      finish(*p, std::move(reply));
      continue;
    }

    if (p->req.deadline_ms > 0.0 &&
        QueryTrace::span_ms(p->trace.enqueue, now()) > p->req.deadline_ms) {
      reply.status = QueryStatus::kDeadlineExpired;
      reply.error = "deadline passed before dispatch";
      finish(*p, std::move(reply));
      continue;
    }

    // Selection: caller override wins; otherwise the cost model's a-priori
    // choice for this graph version. A forced pool kernel still reports its
    // model score (GroupTC-H, outside the pool, keeps a zero cost).
    std::string algo = p->req.algorithm;
    if (algo.empty()) {
      reply.selected = true;
      try {
        Candidate c = selector_.choose(graph->stats);
        algo = std::move(c.algorithm);
        reply.modeled = c.cost;
      } catch (const std::exception& e) {
        reply.error = e.what();
      }
    } else if (framework::is_algorithm_name(algo)) {
      for (const auto& c : selector_.score(graph->stats)) {
        if (c.algorithm == algo) reply.modeled = c.cost;
      }
    } else {
      reply.error = "unknown algorithm '" + algo + "' (valid: " +
                    framework::valid_algorithm_list() + ")";
    }
    if (!reply.error.empty()) {
      reply.status = QueryStatus::kInvalidRequest;
      finish(*p, std::move(reply));
      continue;
    }
    reply.algorithm = algo;
    p->trace.select_done = now();

    p->trace.run_start = now();
    try {
      const fleet::ExecutionOutcome out = fleet_.execute(
          {.key = p->fleet_key, .version = graph_version, .algorithm = algo,
           .graph = graph});
      p->trace.run_done = now();
      reply.triangles = out.run.result.triangles;
      reply.valid = out.run.valid;
      reply.stats = out.run.result.total;
      reply.cache_hit = out.cache_hit;
      reply.sharded = out.placement.sharded;
      reply.devices = out.placement.shards;
      reply.comm_ms = out.comm_ms;
      reply.placement = out.placement.describe();
      reply.predicted_ms = out.placement.total_ms;
      reply.realized_ms = out.realized_ms;
      reply.status = QueryStatus::kOk;
      if (from_stream) {
        std::lock_guard lk(mu_);
        ++counters_.stream_queries;
      }
    } catch (const std::exception& e) {
      p->trace.run_done = now();
      reply.status = QueryStatus::kError;
      reply.error = e.what();
    }
    finish(*p, std::move(reply));
  }

  // An inline graph has no identity past its batch: drop its placement
  // and cached result, so a stream of distinct inline graphs leaves no
  // per-key state behind.
  if (inline_graph) fleet_.invalidate(head.fleet_key);
}

ServiceCounters QueryService::counters() const {
  std::lock_guard lk(mu_);
  return counters_;
}

std::map<std::string, TenantStats> QueryService::tenant_stats() const {
  std::lock_guard lk(mu_);
  return tenant_stats_;
}

std::uint64_t QueryService::dataset_version(const std::string& dataset) const {
  std::shared_ptr<StreamState> ss;
  {
    std::lock_guard lk(mu_);
    const auto it = streams_.find(dataset);
    if (it == streams_.end()) return 0;
    ss = it->second;
  }
  std::lock_guard slk(ss->m);
  return ss->dyn ? ss->dyn->version() : 0;
}

}  // namespace tcgpu::serve
